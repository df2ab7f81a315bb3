// lwlint fixture: blocking-in-reactor true/false positives.

struct sockaddr;
using socklen_t = unsigned int;
using ssize_t = long;
constexpr int MSG_DONTWAIT = 0x40;
constexpr int MSG_NOSIGNAL = 0x4000;
int accept(int, sockaddr*, socklen_t*);
int accept4(int, sockaddr*, socklen_t*, int);
ssize_t recv(int, void*, unsigned long, int);
ssize_t send(int, const void*, unsigned long, int);

struct FramedSock {
  ssize_t recv(void* buf, unsigned long n);
  ssize_t send(const void* buf, unsigned long n);
};

int BadBlockingAccept(int fd) {
  return accept(fd, nullptr, nullptr);  // line 19: blocking accept
}

ssize_t BadBlockingRecv(int fd, char* buf) {
  return recv(fd, buf, 16, 0);  // line 23: no MSG_DONTWAIT
}

ssize_t BadBlockingSend(int fd, const char* buf) {
  return ::send(fd, buf, 16, MSG_NOSIGNAL);  // line 27: no MSG_DONTWAIT
}

int NonBlockingAcceptIsFine(int fd) {
  // accept4 is a different identifier; the reactor uses it with
  // SOCK_NONBLOCK.
  return accept4(fd, nullptr, nullptr, 0);  // no finding
}

ssize_t DontwaitRecvIsFine(int fd, char* buf) {
  return ::recv(fd, buf, 16, MSG_DONTWAIT);  // no finding
}

ssize_t DontwaitSendIsFine(int fd, const char* buf) {
  return ::send(fd, buf, 16, MSG_DONTWAIT | MSG_NOSIGNAL);  // no finding
}

ssize_t MethodCallsAreFine(FramedSock& sock, char* buf) {
  // .send()/.recv() are our framed abstractions, not POSIX syscalls.
  return sock.recv(buf, 16) + sock.send(buf, 16);  // no finding
}

ssize_t AllowedBlockingRecv(int fd, char* buf) {
  // The client-side transport blocks by design.
  // lwlint: allow(blocking-in-reactor)
  return recv(fd, buf, 16, 0);
}

int connect(int, const sockaddr*, unsigned int);
constexpr int EINPROGRESS = 115;
extern int errno_value;

int NonBlockingConnectIsFine(int fd, const sockaddr* addr) {
  // The non-blocking dial: EINPROGRESS means the handshake continues in
  // the kernel and completes via EPOLLOUT + SO_ERROR.
  const int rc = connect(fd, addr, 16);  // no finding
  if (rc < 0 && errno_value != EINPROGRESS) return -1;
  return 0;
}

int BadBlockingConnect(int fd, const sockaddr* addr) {
  return connect(fd, addr, 16);  // line 68: blocking connect
}

int AllowedBlockingConnect(int fd, const sockaddr* addr) {
  // The client-side dial path blocks by design.
  // lwlint: allow(blocking-in-reactor)
  return connect(fd, addr, 16);
}
