#include "pir/two_server.h"

namespace lw::pir {

QueryKeys MakeIndexQuery(std::uint64_t index, int domain_bits) {
  dpf::KeyPair pair = dpf::Generate(index, domain_bits);
  return QueryKeys{std::move(pair.key0), std::move(pair.key1)};
}

Result<Bytes> CombineAnswers(ByteSpan answer0, ByteSpan answer1) {
  if (answer0.size() != answer1.size()) {
    return ProtocolError("answer size mismatch between servers");
  }
  Bytes out(answer0.begin(), answer0.end());
  XorInto(out, answer1);
  return out;
}

std::size_t QueryUploadBytes(int domain_bits) {
  return dpf::KeySize(domain_bits);
}

std::size_t TotalCommunicationBytes(int domain_bits,
                                    std::size_t record_size) {
  return 2 * (QueryUploadBytes(domain_bits) + record_size);
}

}  // namespace lw::pir
