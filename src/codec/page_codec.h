#pragma once

// Lossless block codecs for frozen KV pages.
//
// A frozen page's quantized K/V payload is a stream of fake-quantized
// IEEE-754 floats whose entropy is far below 32 bits per element: a
// block quantizer emits values drawn from a tiny code book around a
// shared per-block exponent. The codecs here exploit exactly that —
// per 32-element block they bitpack [sign | exponent-delta | used
// mantissa bits] against the block's maximum biased exponent — while
// staying *unconditionally lossless*: any element the packed form
// cannot represent bit-exactly (denormals, infinities, NaNs, or a
// block that simply does not compress) falls back to a raw 4-byte
// copy. Decoding therefore reproduces the input float stream
// bit-for-bit in every format, which is what keeps the serving
// invariant (token streams bit-identical regardless of storage
// layout) intact when compressed pages are read back.
//
// The registry follows the pisa codec family pattern: codecs are
// looked up by name, and "auto" resolves to the AVX2 decoder when the
// CPU supports it. Both codecs share one scalar encoder so the
// bitstream is identical across backends; they differ only in how
// blocks are unpacked.
//
// Dense MX pages (makeDenseMxCodec)
// ---------------------------------
// When a page's K and V floats are MX-quantized, the bitpacker above
// still spends sign, exponent delta and mantissa bits on every element.
// The dense codec stores them as the paper's blocks instead: packed
// element codes, the E8M0 scale byte and, in MX+/MX++, the meta byte
// (BM index | MX++ delta << 5), which is 4.5 bits per element for
// MXFP4+. It decodes them as the weight store does, by table lookup.
// It is lossless for any input, like the bitpacker: the encoder checks
// every block's decode against the floats it was given, and a block
// that does not decode to them bit for bit is stored raw. Two facts of
// fake-quantized floats make most such blocks encodable anyway (see
// mx_quantizer.h):
//  - a float format element that rounded to -0.0 keeps its sign: the
//    encoder sets the sign bit of its +0 code (integer formats have
//    no -0 code, so such a block is stored raw);
//  - an MX+/MX++ block whose quantized NBM rounded above its BM picks
//    the wrong BM when encoded again: the encoder retries each other
//    slot as the BM at the same scale and delta (under MX++ also at
//    the next finer delta, as an NBM that rounded up to a power of two
//    raises the delta), and keeps the first that decodes exactly.
//
// Dense stream layout (nb = n / block size whole blocks):
//   header (8 bytes): [0xD1] [element format] [mode] [block size]
//                     [n : u32 LE]
//   scales : nb E8M0 bytes; E8M0::kNaN (0xFF, which no encoder emits)
//            marks a block stored raw
//   metas  : nb bytes, MX+/MX++ only
//   codes  : nb * block size element codes, packed back to back at the
//            element width (code i at bit i * width, LSB first); a raw
//            block's codes are zero
//   raw    : the floats of every raw block in block order, then the
//            n % block size floats of the ragged tail

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace mxplus {

class MxQuantizer;

/// Abstract page codec. Implementations must be stateless and
/// thread-safe: decode() runs concurrently from worker threads that
/// share a compressed span.
class PageCodec {
  public:
    virtual ~PageCodec() = default;

    /// Registry name ("reference", "simd"; "dense-reference" and
    /// "dense-simd" for the dense MX codec).
    virtual const char *name() const = 0;

    /// Encodes n floats into `out` (replaced, not appended). Returns
    /// the encoded byte size. The bitstream is identical across the
    /// decode backends of one codec family.
    virtual size_t encode(const float *in, size_t n,
                          std::vector<uint8_t> &out) const = 0;

    /// Decodes exactly n floats from `in`/`size` into `out`. Returns
    /// false when the stream is malformed (bad header, truncated or
    /// trailing bytes, out-of-range field widths); `out` contents are
    /// unspecified in that case.
    virtual bool decode(const uint8_t *in, size_t size, float *out,
                        size_t n) const = 0;
};

/// Looks up a codec by registry name; nullptr when unknown.
const PageCodec *pageCodecByName(const std::string &name);

/// Resolves the codec named `requested`: "auto" picks "simd" when the
/// CPU has AVX2+FMA and "reference" otherwise. Returns nullptr when the
/// resulting name is unknown.
const PageCodec *resolvePageCodec(const std::string &requested);

/// All registered codecs, for property-test sweeps.
std::vector<const PageCodec *> allPageCodecs();

/// An instance of the registered codec @p name that its caller owns
/// (KvPagePool owns its codec); nullptr when the name is unknown.
std::unique_ptr<const PageCodec> makePageCodec(const std::string &name);

/// The dense MX codec for blocks of @p q (file note). @p simd_decode
/// selects the AVX2 table-lookup decode (scalar on a CPU without
/// AVX2+FMA); otherwise every block decodes through
/// MxQuantizer::decodeBlock. Both decodes give the same floats.
std::unique_ptr<const PageCodec> makeDenseMxCodec(const MxQuantizer &q,
                                                  bool simd_decode);

} // namespace mxplus
