#include "codec/page_codec.h"

#include <algorithm>
#include <cstring>

#include "codec/codec_internal.h"
#include "kernels/kernel_dispatch.h"

namespace mxplus {
namespace {

using codec::kBlockElems;
using codec::kCtrlEbitsMask;
using codec::kCtrlHasZero;
using codec::kCtrlPacked;
using codec::kHeaderBytes;
using codec::kStreamVersion;

// Bitstream layout
// ----------------
// header (6 bytes): [version 0xC1] [block elems] [n : u32 LE]
// then ceil(n / block) blocks, the last one possibly ragged:
//
// packed block: [ctrl] [mbits] [ebase] [payload]
//   ctrl: bit7 = 1 (packed), bit6 = has_zero, bits 5..4 = 0,
//         bits 3..0 = ebits (0..8)
//   mbits in 0..23, ebase = max biased exponent in the block
//   payload: block_n elements of w = 1 + ebits + mbits bits each,
//   LSB-first: [sign(1)] [delta = ebase - E (ebits)] [top mbits of M]
//   A zero element stores delta = (1<<ebits)-1 (sentinel; the encoder
//   sizes ebits so the sentinel exceeds every real delta) with zero
//   mantissa bits; an all-zero block has ebits = mbits = 0 and
//   has_zero = 1, so each element is just its sign bit.
//
// raw block: [ctrl = 0x00] [4 * block_n bytes, floats memcpy'd LE]
//   Used when the block holds denormals, infinities or NaNs, or when
//   packing would not beat the raw copy — this is what makes the
//   codec unconditionally lossless.

unsigned
bitsFor(uint32_t v)
{
    unsigned bits = 0;
    while (bits < 32 && ((1u << bits) - 1u) < v)
        ++bits;
    return bits;
}

uint32_t
loadFloatBits(const float *f)
{
    uint32_t u;
    std::memcpy(&u, f, sizeof(u));
    return u;
}

/// Appends the low `w` bits of `x` to the stream, LSB-first.
struct BitWriter {
    std::vector<uint8_t> &out;
    uint64_t acc = 0;
    unsigned nbits = 0;

    void put(uint32_t x, unsigned w)
    {
        acc |= static_cast<uint64_t>(x) << nbits;
        nbits += w;
        while (nbits >= 8) {
            out.push_back(static_cast<uint8_t>(acc & 0xFF));
            acc >>= 8;
            nbits -= 8;
        }
    }
    void flush()
    {
        if (nbits > 0) {
            out.push_back(static_cast<uint8_t>(acc & 0xFF));
            acc = 0;
            nbits = 0;
        }
    }
};

/// Reads `w` bits at absolute bit offset `bit` from `p` (LSB-first).
/// Callers bounds-check the whole payload up front.
uint32_t
readBits(const uint8_t *p, size_t bit, unsigned w)
{
    uint64_t acc = 0;
    const size_t byte = bit >> 3;
    const unsigned shift = static_cast<unsigned>(bit & 7);
    const unsigned need = (shift + w + 7) / 8;
    for (unsigned i = 0; i < need; ++i)
        acc |= static_cast<uint64_t>(p[byte + i]) << (8 * i);
    acc >>= shift;
    return static_cast<uint32_t>(acc & ((w >= 32) ? 0xFFFFFFFFull
                                                  : ((1ull << w) - 1ull)));
}

void
encodeBlock(const float *in, size_t n_blk, std::vector<uint8_t> &out)
{
    bool raw_needed = false;
    bool has_zero = false;
    bool has_nonzero = false;
    unsigned emax = 0;
    unsigned dmax = 0;
    unsigned mbits = 0;
    uint32_t bits[kBlockElems];

    for (size_t i = 0; i < n_blk; ++i) {
        const uint32_t u = loadFloatBits(in + i);
        bits[i] = u;
        const unsigned e = (u >> 23) & 0xFF;
        const uint32_t m = u & 0x7FFFFF;
        if (e == 255 || (e == 0 && m != 0)) {
            raw_needed = true; // Inf/NaN/denormal: packed form cannot
            break;             // hold these losslessly
        }
        if (e == 0) {
            has_zero = true;
            continue;
        }
        has_nonzero = true;
        emax = std::max(emax, e);
        unsigned used = 0;
        if (m != 0) {
            uint32_t mm = m;
            unsigned tz = 0;
            while ((mm & 1u) == 0) {
                mm >>= 1;
                ++tz;
            }
            used = 23 - tz;
        }
        mbits = std::max(mbits, used);
    }

    unsigned ebits = 0;
    if (!raw_needed && has_nonzero) {
        for (size_t i = 0; i < n_blk; ++i) {
            const unsigned e = (bits[i] >> 23) & 0xFF;
            if (e != 0)
                dmax = std::max(dmax, emax - e);
        }
        // With zeros present the all-ones delta is the zero sentinel,
        // so it must strictly exceed every real delta.
        ebits = has_zero ? bitsFor(dmax + 1) : bitsFor(dmax);
    }

    const unsigned w = 1 + ebits + mbits;
    const size_t packed_bytes = 3 + (n_blk * w + 7) / 8;
    const size_t raw_bytes = 1 + 4 * n_blk;
    if (raw_needed || packed_bytes >= raw_bytes) {
        out.push_back(0x00);
        const size_t base = out.size();
        out.resize(base + 4 * n_blk);
        std::memcpy(out.data() + base, in, 4 * n_blk);
        return;
    }

    uint8_t ctrl = kCtrlPacked | static_cast<uint8_t>(ebits);
    if (has_zero)
        ctrl |= kCtrlHasZero;
    out.push_back(ctrl);
    out.push_back(static_cast<uint8_t>(mbits));
    out.push_back(static_cast<uint8_t>(emax));

    const uint32_t sentinel = (1u << ebits) - 1u;
    BitWriter bw{out};
    for (size_t i = 0; i < n_blk; ++i) {
        const uint32_t u = bits[i];
        const uint32_t s = u >> 31;
        const unsigned e = (u >> 23) & 0xFF;
        const uint32_t m = u & 0x7FFFFF;
        uint32_t x;
        if (e == 0) { // zero: sign + sentinel delta, mantissa zero
            x = s | (sentinel << 1);
        } else {
            const uint32_t delta = emax - e;
            x = s | (delta << 1) | ((m >> (23 - mbits)) << (1 + ebits));
        }
        bw.put(x, w);
    }
    bw.flush();
}

size_t
encodeStream(const float *in, size_t n, std::vector<uint8_t> &out)
{
    out.clear();
    out.reserve(kHeaderBytes + n); // optimistic ~4x
    out.push_back(kStreamVersion);
    out.push_back(static_cast<uint8_t>(kBlockElems));
    const uint32_t n32 = static_cast<uint32_t>(n);
    out.push_back(static_cast<uint8_t>(n32 & 0xFF));
    out.push_back(static_cast<uint8_t>((n32 >> 8) & 0xFF));
    out.push_back(static_cast<uint8_t>((n32 >> 16) & 0xFF));
    out.push_back(static_cast<uint8_t>((n32 >> 24) & 0xFF));
    for (size_t pos = 0; pos < n; pos += kBlockElems)
        encodeBlock(in + pos, std::min<size_t>(kBlockElems, n - pos), out);
    return out.size();
}

void
unpackBlockScalar(const uint8_t *p, size_t n, unsigned w, unsigned ebits,
                  unsigned mbits, unsigned ebase, bool has_zero, float *out)
{
    const uint32_t emask = (ebits == 0) ? 0u : ((1u << ebits) - 1u);
    const uint32_t mmask = (mbits == 0) ? 0u : ((1u << mbits) - 1u);
    for (size_t i = 0; i < n; ++i) {
        const uint32_t x = readBits(p, i * w, w);
        const uint32_t s = x & 1u;
        const uint32_t dlt = (x >> 1) & emask;
        const uint32_t m = (x >> (1 + ebits)) & mmask;
        uint32_t u;
        if (has_zero && (ebits == 0 || dlt == emask)) {
            u = s << 31;
        } else {
            const uint32_t e = (ebase - dlt) & 0xFF;
            u = (s << 31) | (e << 23) | (m << (23 - mbits));
        }
        std::memcpy(out + i, &u, sizeof(u));
    }
}

bool
decodeStream(const uint8_t *in, size_t size, float *out, size_t n,
             bool use_avx2)
{
    if (size < kHeaderBytes || in[0] != kStreamVersion)
        return false;
    const unsigned blk = in[1];
    if (blk == 0)
        return false;
    const uint32_t n_hdr = static_cast<uint32_t>(in[2]) |
                           (static_cast<uint32_t>(in[3]) << 8) |
                           (static_cast<uint32_t>(in[4]) << 16) |
                           (static_cast<uint32_t>(in[5]) << 24);
    if (n_hdr != n)
        return false;

    size_t pos = kHeaderBytes;
    size_t done = 0;
    while (done < n) {
        const size_t n_blk = std::min<size_t>(blk, n - done);
        if (pos >= size)
            return false;
        const uint8_t ctrl = in[pos++];
        if (ctrl & kCtrlPacked) {
            if (ctrl & 0x30) // reserved bits must be clear
                return false;
            const unsigned ebits = ctrl & kCtrlEbitsMask;
            const bool has_zero = (ctrl & kCtrlHasZero) != 0;
            if (ebits > 8)
                return false;
            if (pos + 2 > size)
                return false;
            const unsigned mbits = in[pos];
            const unsigned ebase = in[pos + 1];
            pos += 2;
            if (mbits > 23)
                return false;
            const unsigned w = 1 + ebits + mbits;
            const size_t payload = (n_blk * w + 7) / 8;
            if (pos + payload > size)
                return false;
            if (!use_avx2 ||
                !codec::unpackBlockAvx2(in + pos, size - pos, n_blk, w,
                                        ebits, mbits, ebase, has_zero,
                                        out + done))
                unpackBlockScalar(in + pos, n_blk, w, ebits, mbits, ebase,
                                  has_zero, out + done);
            pos += payload;
        } else {
            if (ctrl != 0x00)
                return false;
            if (pos + 4 * n_blk > size)
                return false;
            std::memcpy(out + done, in + pos, 4 * n_blk);
            pos += 4 * n_blk;
        }
        done += n_blk;
    }
    return pos == size;
}

/// The bitpacker; the decode backend is its only variant.
class BitpackPageCodec final : public PageCodec {
  public:
    explicit BitpackPageCodec(bool simd) : simd_(simd) {}
    const char *name() const override
    {
        return simd_ ? "simd" : "reference";
    }
    size_t encode(const float *in, size_t n,
                  std::vector<uint8_t> &out) const override
    {
        return encodeStream(in, n, out); // bitstream shared by backends
    }
    bool decode(const uint8_t *in, size_t size, float *out,
                size_t n) const override
    {
        return decodeStream(in, size, out, n, /*use_avx2=*/simd_);
    }

  private:
    bool simd_;
};

} // namespace

const PageCodec *
pageCodecByName(const std::string &name)
{
    static const BitpackPageCodec ref(/*simd=*/false);
    static const BitpackPageCodec simd(/*simd=*/true);
    if (name == "reference")
        return &ref;
    if (name == "simd")
        return &simd;
    return nullptr;
}

const PageCodec *
resolvePageCodec(const std::string &requested)
{
    std::string name = requested;
    if (name == "auto")
        name = KernelDispatch::cpuHasAvx2Fma() ? "simd" : "reference";
    return pageCodecByName(name);
}

std::vector<const PageCodec *>
allPageCodecs()
{
    return {pageCodecByName("reference"), pageCodecByName("simd")};
}

std::unique_ptr<const PageCodec>
makePageCodec(const std::string &name)
{
    if (pageCodecByName(name) == nullptr)
        return nullptr;
    return std::make_unique<BitpackPageCodec>(name == "simd");
}

} // namespace mxplus
