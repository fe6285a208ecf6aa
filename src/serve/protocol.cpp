#include "serve/protocol.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "util/serialize.h"

namespace phonolid::serve {

namespace {
constexpr char kFrameMagic[4] = {'P', 'L', 'S', 'V'};

// Peek the frame version from the raw body so decode can accept every
// version in [kMinServeProtocolVersion, kServeProtocolVersion].
// (BinaryReader::expect_magic rejects anything but one exact version, so
// the peeked value is what we then tell it to expect.)
std::uint32_t peek_frame_version(const std::string& body) {
  if (body.size() < 8 || std::memcmp(body.data(), kFrameMagic, 4) != 0) {
    throw util::SerializeError("bad PLSV frame magic");
  }
  std::uint32_t version = 0;
  std::memcpy(&version, body.data() + 4, sizeof version);
  if (version < kMinServeProtocolVersion || version > kServeProtocolVersion) {
    throw util::SerializeError("unsupported PLSV frame version " +
                               std::to_string(version));
  }
  return version;
}
}  // namespace

const char* to_string(Status status) noexcept {
  switch (status) {
    case Status::kOk: return "OK";
    case Status::kBadRequest: return "BAD_REQUEST";
    case Status::kOverloaded: return "OVERLOADED";
    case Status::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case Status::kShuttingDown: return "SHUTTING_DOWN";
    case Status::kError: return "ERROR";
  }
  return "?";
}

std::string encode_request(const Request& request) {
  std::ostringstream out;
  util::BinaryWriter w(out);
  w.write_magic(kFrameMagic, request.wire_version);
  w.write_u32(static_cast<std::uint32_t>(request.type));
  w.write_u64(request.request_id);
  w.write_u32(request.deadline_ms);
  if (request.wire_version >= 2) w.write_u64(request.trace_id);
  switch (request.type) {
    case FrameType::kScore:
      w.write_f32_vec(request.samples);
      break;
    case FrameType::kSwap:
      w.write_string(request.text);
      break;
    case FrameType::kPing:
    case FrameType::kStats:
      break;
  }
  return std::move(out).str();
}

Request decode_request(const std::string& body) {
  const std::uint32_t version = peek_frame_version(body);
  std::istringstream in(body);
  util::BinaryReader r(in);
  r.expect_magic(kFrameMagic, version);
  Request request;
  request.wire_version = version;
  const std::uint32_t type = r.read_u32();
  if (type < static_cast<std::uint32_t>(FrameType::kScore) ||
      type > static_cast<std::uint32_t>(FrameType::kSwap)) {
    throw util::SerializeError("unknown request frame type " +
                               std::to_string(type));
  }
  request.type = static_cast<FrameType>(type);
  request.request_id = r.read_u64();
  request.deadline_ms = r.read_u32();
  if (version >= 2) request.trace_id = r.read_u64();
  switch (request.type) {
    case FrameType::kScore:
      request.samples = r.read_f32_vec();
      break;
    case FrameType::kSwap:
      request.text = r.read_string();
      break;
    case FrameType::kPing:
    case FrameType::kStats:
      break;
  }
  return request;
}

std::string encode_response(const Response& response) {
  std::ostringstream out;
  util::BinaryWriter w(out);
  w.write_magic(kFrameMagic, response.wire_version);
  w.write_u64(response.request_id);
  w.write_u32(static_cast<std::uint32_t>(response.status));
  if (response.wire_version >= 2) w.write_u64(response.trace_id);
  w.write_f32_vec(response.llr);
  w.write_u32(response.best_language);
  w.write_string(response.text);
  return std::move(out).str();
}

Response decode_response(const std::string& body) {
  const std::uint32_t version = peek_frame_version(body);
  std::istringstream in(body);
  util::BinaryReader r(in);
  r.expect_magic(kFrameMagic, version);
  Response response;
  response.wire_version = version;
  response.request_id = r.read_u64();
  const std::uint32_t status = r.read_u32();
  if (status > static_cast<std::uint32_t>(Status::kError)) {
    throw util::SerializeError("unknown response status " +
                               std::to_string(status));
  }
  response.status = static_cast<Status>(status);
  if (version >= 2) response.trace_id = r.read_u64();
  response.llr = r.read_f32_vec();
  response.best_language = r.read_u32();
  response.text = r.read_string();
  return response;
}

bool read_exact(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<char*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t rc = ::read(fd, p + got, n - got);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (got == 0) return false;
      // An I/O error after bytes were already consumed is a truncated
      // frame, not a clean close — same contract as the rc == 0 case.
      throw util::SerializeError(std::string("read error mid-frame: ") +
                                 std::strerror(errno));
    }
    if (rc == 0) {
      if (got == 0) return false;
      throw util::SerializeError("connection closed mid-frame");
    }
    got += static_cast<std::size_t>(rc);
  }
  return true;
}

bool write_all(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const char*>(buf);
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a vanished peer is a false return, not a process-killing
    // SIGPIPE.
    const ssize_t rc = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(rc);
  }
  return true;
}

bool read_frame(int fd, std::string& body) {
  std::uint32_t length = 0;
  if (!read_exact(fd, &length, sizeof length)) return false;
  if (length > kMaxFrameBytes) {
    throw util::SerializeError("frame length " + std::to_string(length) +
                               " exceeds limit");
  }
  body.assign(length, '\0');
  if (length > 0 && !read_exact(fd, body.data(), length)) {
    throw util::SerializeError("connection closed mid-frame");
  }
  return true;
}

bool write_frame(int fd, const std::string& body) {
  // Prefix and body go out in one sendmsg.  Two sends would leave the body
  // queued behind Nagle until the peer's delayed ACK of the prefix (~40 ms
  // per frame on loopback).  The body is gathered from its own buffer, never
  // copied: frames reach kMaxFrameBytes.
  auto length = static_cast<std::uint32_t>(body.size());
  iovec iov[2] = {{&length, sizeof length},
                  {const_cast<char*>(body.data()), body.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    // MSG_NOSIGNAL: a vanished peer is a false return, not SIGPIPE.
    const ssize_t rc = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    // Skip what a partial write consumed.
    auto sent = static_cast<std::size_t>(rc);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + sent;
      msg.msg_iov->iov_len -= sent;
    }
  }
  return true;
}

}  // namespace phonolid::serve
