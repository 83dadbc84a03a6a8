#ifndef PHOENIX_WAL_FRAME_CODEC_H_
#define PHOENIX_WAL_FRAME_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "serde/codec.h"

namespace phoenix {

// The WAL frame format, in one place. A frame is
//
//   [payload length: LEB128 varint, 1-5 bytes][crc32c(payload): u32 LE]
//   [payload]
//
// and a record's LSN is the byte offset of its frame. On a sharded log the
// payload opens with the record's global sequence number (gsn) as an
// absolute LEB128 varint, inside the CRC. Absolute, not a delta from the
// previous frame, so every frame decodes alone: a point read learns its
// record's order, and a salvage resync needs no base value.
//
// LogWriter frames payloads with AppendFrame; LogReader, ReadRecordAt and
// the salvage resync parse them with DecodeFrame; LogManager stamps the gsn
// with PutGsnPrefix and readers take it back with TakeGsnPrefix.

// The smallest header: a one-byte length and the 4-byte CRC.
inline constexpr size_t kMinFrameHeaderBytes = 5;

// A frame whose header parsed, whose payload lies within the image and
// whose CRC matches.
struct FrameView {
  const uint8_t* payload = nullptr;
  uint32_t payload_len = 0;
  size_t header_size = 0;  // the payload's offset from the frame's start

  size_t size() const { return header_size + payload_len; }
};

// Header bytes of a frame around a `payload_len`-byte payload.
size_t FrameHeaderSize(size_t payload_len);

// Appends the frame holding `payload` to `out`.
void AppendFrame(const std::vector<uint8_t>& payload,
                 std::vector<uint8_t>* out);

// The frame at `data`, `avail` image bytes long from there. Corruption when
// the header does not end within `avail` (a torn tail), its length varint
// is longer than 5 bytes or exceeds a u32, or the payload runs past `avail`
// or fails its CRC.
Result<FrameView> DecodeFrame(const uint8_t* data, size_t avail);

// Writes the gsn prefix of a sharded frame's payload.
void PutGsnPrefix(uint64_t gsn, Encoder& enc);

// Reads the gsn prefix off the front of a payload, advancing `*payload` and
// shrinking `*len` past it. Corruption when the varint does not end inside
// the payload.
Result<uint64_t> TakeGsnPrefix(const uint8_t** payload, uint32_t* len);

}  // namespace phoenix

#endif  // PHOENIX_WAL_FRAME_CODEC_H_
