#include "net/faulty.h"

#include "util/clock.h"

namespace lw::net {

Result<std::unique_ptr<FaultRelay>> FaultRelay::Start(std::string host,
                                                      std::uint16_t port,
                                                      Options options) {
  LW_ASSIGN_OR_RETURN(TcpListener listener, TcpListener::Listen(0));
  return std::make_unique<FaultRelay>(std::move(listener), std::move(host),
                                      port, std::move(options));
}

FaultRelay::FaultRelay(TcpListener listener, std::string host,
                       std::uint16_t port, Options options)
    : listener_(std::move(listener)),
      target_host_(std::move(host)),
      target_port_(port),
      options_(std::move(options)) {
  accept_ = std::thread([this] { AcceptLoop(); });
  deliver_ = std::thread([this] { DeliverLoop(); });
}

FaultRelay::~FaultRelay() {
  listener_.Close();  // ends AcceptLoop; pipes_ is ours after the join
  accept_.join();
  for (auto& pipe : pipes_) {
    pipe->near->Close();
    pipe->far->Close();
    pipe->up.join();
    pipe->down.join();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  deliver_.join();
}

void FaultRelay::AcceptLoop() {
  for (int conn_index = 0;; ++conn_index) {
    auto near = listener_.Accept();
    if (!near.ok()) return;  // listener closed
    auto far = TcpConnect(target_host_, target_port_);
    if (!far.ok()) {
      (*near)->Close();  // the server is down: so is the relayed connection
      continue;
    }
    auto pipe = std::make_unique<Pipe>();
    pipe->near = std::move(*near);
    pipe->far = options_.decorate
                    ? options_.decorate(std::move(*far), conn_index)
                    : std::move(*far);
    // The pumps wait forever on purpose: a relayed connection lives until
    // one of its legs fails or the relay closes both.
    pipe->up = std::thread([near = pipe->near, far = pipe->far] {
      for (;;) {
        auto frame = near->Receive(Deadline::Infinite());
        if (!frame.ok() || !far->Send(*frame, Deadline::Infinite()).ok()) {
          break;
        }
      }
      near->Close();
      far->Close();
    });
    pipe->down = std::thread([this, near = pipe->near, far = pipe->far] {
      for (;;) {
        auto frame = far->Receive(Deadline::Infinite());
        if (!frame.ok()) break;
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back({Clock::Real().Now() + options_.latency, near,
                          std::move(*frame)});
        cv_.notify_all();
      }
      near->Close();
      far->Close();
    });
    pipes_.push_back(std::move(pipe));
  }
}

void FaultRelay::DeliverLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (stopping_) return;
    Delivery next = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    const std::chrono::nanoseconds wait = next.due - Clock::Real().Now();
    if (wait.count() > 0) Clock::Real().SleepFor(wait);
    (void)next.near->Send(next.frame, Deadline::Infinite());
    lock.lock();
  }
}

}  // namespace lw::net
