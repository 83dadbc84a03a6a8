#include "wal/frame_codec.h"

#include <limits>

#include "common/crc32c.h"
#include "common/macros.h"

namespace phoenix {
namespace {

constexpr size_t kFrameCrcBytes = 4;
// A u32 length in 7-bit groups takes at most 5 bytes.
constexpr size_t kMaxFrameLengthBytes = 5;

}  // namespace

size_t FrameHeaderSize(size_t payload_len) {
  size_t bytes = 1;
  while (payload_len >= 0x80) {
    payload_len >>= 7;
    ++bytes;
  }
  return bytes + kFrameCrcBytes;
}

void AppendFrame(const std::vector<uint8_t>& payload,
                 std::vector<uint8_t>* out) {
  PHX_CHECK(payload.size() <= std::numeric_limits<uint32_t>::max());
  uint32_t len = static_cast<uint32_t>(payload.size());
  uint32_t crc = Crc32c(payload.data(), payload.size());
  while (len >= 0x80) {
    out->push_back(static_cast<uint8_t>(len) | 0x80);
    len >>= 7;
  }
  out->push_back(static_cast<uint8_t>(len));
  for (size_t i = 0; i < kFrameCrcBytes; ++i) {
    out->push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  out->insert(out->end(), payload.begin(), payload.end());
}

Result<FrameView> DecodeFrame(const uint8_t* data, size_t avail) {
  uint64_t len = 0;
  size_t i = 0;
  for (;; ++i) {
    if (i == kMaxFrameLengthBytes) {
      return Status::Corruption("frame length varint longer than 5 bytes");
    }
    if (i == avail) return Status::Corruption("frame header past end of log");
    len |= static_cast<uint64_t>(data[i] & 0x7F) << (7 * i);
    if ((data[i] & 0x80) == 0) break;
  }
  if (len > std::numeric_limits<uint32_t>::max()) {
    return Status::Corruption("frame length exceeds u32");
  }
  FrameView frame;
  frame.header_size = i + 1 + kFrameCrcBytes;
  if (frame.header_size > avail) {
    return Status::Corruption("frame header past end of log");
  }
  if (len > avail - frame.header_size) {
    return Status::Corruption("record extends past end of log");
  }
  frame.payload_len = static_cast<uint32_t>(len);
  frame.payload = data + frame.header_size;
  uint32_t crc = 0;
  for (size_t b = 0; b < kFrameCrcBytes; ++b) {
    crc |= static_cast<uint32_t>(data[i + 1 + b]) << (8 * b);
  }
  if (Crc32c(frame.payload, frame.payload_len) != crc) {
    return Status::Corruption("record crc mismatch");
  }
  return frame;
}

void PutGsnPrefix(uint64_t gsn, Encoder& enc) { enc.PutVarint(gsn); }

Result<uint64_t> TakeGsnPrefix(const uint8_t** payload, uint32_t* len) {
  Decoder dec(*payload, *len);
  Result<uint64_t> gsn = dec.GetVarint();
  if (!gsn.ok()) {
    if (dec.exhausted()) {
      return Status::Corruption("sharded frame too short for gsn prefix");
    }
    return gsn.status();
  }
  uint32_t used = *len - static_cast<uint32_t>(dec.remaining());
  *payload += used;
  *len -= used;
  return gsn;
}

}  // namespace phoenix
