// Wire protocol of the `phonolid serve` scoring daemon.
//
// Length-prefixed binary frames over a stream socket:
//
//   u32 frame_length                    (bytes that follow; little-endian)
//   frame body (util::BinaryWriter layout):
//     "PLSV" magic + u32 protocol version
//     request:  u32 type, u64 request_id, u32 deadline_ms,
//               [v2+: u64 trace_id], payload
//     response: u64 request_id, u32 status, [v2+: u64 trace_id],
//               f32[] llr, u32 best, string text
//
// Version negotiation is per-frame and implicit: the daemon accepts any
// version in [1, kServeProtocolVersion] and echoes the request's version in
// its response, so a v1 client exchanges byte-identical v1 frames forever
// while a v2 client gains the optional trace-id field.  trace_id 0 on a v2
// request means "mint one for me" — the daemon assigns an id at admission
// and returns it in the response so the client can correlate slow-request
// log entries and flight-recorder spans.
//
// Request payloads by type: kScore carries an f32 PCM vector (at the
// bundle's sample rate; non-empty, every sample finite and within
// ±kMaxPcmMagnitude); kSwap a bundle directory string; kPing / kStats
// nothing.  Responses reuse one layout for every type — llr/best are empty
// except for a successful kScore, text carries the stats JSON (kStats) or a
// human-readable error.
//
// Robustness contract (tests/test_serve.cpp): a malformed frame — bad
// magic, wrong version, truncated body, oversized length prefix — gets a
// clean kBadRequest/kError response (request_id 0 when the id could not be
// parsed) followed by connection close; the daemon never crashes and never
// drops a frame silently.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace phonolid::serve {

inline constexpr std::uint32_t kServeProtocolVersion = 2;
/// Oldest frame version the daemon still decodes (v1 = no trace-id field).
inline constexpr std::uint32_t kMinServeProtocolVersion = 1;

/// Upper bound on one frame body; a length prefix beyond this is corruption
/// (64 MB ≈ 35 minutes of f32 PCM at 8 kHz — far past any utterance).
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Largest |sample| a kScore payload may carry: 2^31, the int32 full scale.
/// A non-finite sample, or one far past any PCM full scale, overflows the
/// float power spectrum, and the features (and so the LLRs) it yields mean
/// nothing; the daemon answers kBadRequest instead of scoring it.
inline constexpr float kMaxPcmMagnitude = 2147483648.0f;

enum class FrameType : std::uint32_t {
  kScore = 1,
  kPing = 2,
  kStats = 3,
  kSwap = 4,
};

enum class Status : std::uint32_t {
  kOk = 0,
  kBadRequest = 1,
  kOverloaded = 2,
  kDeadlineExceeded = 3,
  kShuttingDown = 4,
  kError = 5,
};

const char* to_string(Status status) noexcept;

struct Request {
  FrameType type = FrameType::kScore;
  std::uint64_t request_id = 0;
  /// Per-request deadline from enqueue time (0 = none); requests whose
  /// deadline lapses before their batch starts scoring are shed with an
  /// explicit kDeadlineExceeded, never dropped.
  std::uint32_t deadline_ms = 0;
  /// Request-scoped trace id (v2 frames only; 0 = let the daemon mint one).
  std::uint64_t trace_id = 0;
  /// Frame version this request was (or should be) encoded with.  Decoding
  /// sets it to the version seen on the wire; the daemon echoes it back so
  /// responses match what the client speaks.
  std::uint32_t wire_version = kServeProtocolVersion;
  std::vector<float> samples;  // kScore PCM payload
  std::string text;            // kSwap bundle directory
};

struct Response {
  std::uint64_t request_id = 0;
  Status status = Status::kOk;
  /// Trace id assigned at admission (v2 frames only; 0 on v1 / non-score).
  std::uint64_t trace_id = 0;
  /// Frame version to encode with; the daemon copies the request's.
  std::uint32_t wire_version = kServeProtocolVersion;
  std::vector<float> llr;           // per-language calibrated LLRs (kScore)
  std::uint32_t best_language = 0;  // argmax LLR (kScore)
  std::string text;                 // stats JSON / error message
};

/// Encode a frame body (no length prefix — the socket helpers add it).
std::string encode_request(const Request& request);
std::string encode_response(const Response& response);

/// Decode a frame body; throws util::SerializeError on malformed input.
Request decode_request(const std::string& body);
Response decode_response(const std::string& body);

/// Blocking exact-size socket IO (EINTR-safe).  false = clean EOF or error
/// before any byte (read) / peer gone (write); a short read or I/O error
/// mid-buffer throws.
bool read_exact(int fd, void* buf, std::size_t n);
bool write_all(int fd, const void* buf, std::size_t n);

/// Read one length-prefixed frame body into `body`.  false on clean EOF;
/// throws util::SerializeError on an oversized length prefix or a body
/// truncated mid-frame.
bool read_frame(int fd, std::string& body);
/// Write one length-prefixed frame, prefix and body in one sendmsg (looping
/// on partial writes); false when the peer is gone.
bool write_frame(int fd, const std::string& body);

}  // namespace phonolid::serve
