#include "src/layers/dfs/wire.h"

namespace springfs::dfs {

const uint8_t* WireReader::Take(size_t n) {
  if (!status_.ok()) {
    return nullptr;
  }
  if (n > left()) {
    Fail("wire body truncated");
    return nullptr;
  }
  const uint8_t* p = wire_.data() + at_;
  at_ += n;
  return p;
}

void WireReader::Fail(const char* what) {
  if (status_.ok()) {
    status_ = ErrCorrupted(what);
  }
}

Status WireReader::Finish() const {
  if (status_.ok() && at_ != wire_.size()) {
    return ErrCorrupted("trailing bytes after wire body");
  }
  return status_;
}

net::Frame ReplyFrame(const Status& st) {
  if (st.ok()) {
    return net::Frame{};
  }
  net::Frame frame = net::Frame::Error(st.code());
  frame.payload = Buffer(st.message());
  return frame;
}

}  // namespace springfs::dfs
