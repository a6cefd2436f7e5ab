/**
 * @file
 * Decode of a run of back-to-back MX blocks (kernels_internal.h
 * MxBlockRun), the layout of a dense MX page (codec/page_codec.h).
 *
 * The AVX2 backend reuses the weight store's row decode: a run's codes
 * are one stream, so kNR consecutive codes are one packed row, which
 * covers half a 32-element block, one 16-element block or two 8-element
 * blocks. Lanes 0-7 and 8-15 take their own block's scale, and an
 * MX+/MX++ block's BM slot is rewritten at the full block scale
 * afterwards, as in the panel decode.
 */

#include <algorithm>
#include <cstring>

#include "kernels/kernel_dispatch.h"
#include "kernels/mx_decode_avx2.h"
#include "mx/mx_quantizer.h"
#include "mx/weight_store.h"

namespace mxplus::kernels {

namespace {

constexpr auto packedCode = &MxPanelWeight::laneCode;

} // namespace

void
decodeBlocksReference(const MxQuantizer &q, const MxBlockRun &run,
                      float *out)
{
    const int bs = q.blockSize();
    const int bits = elementFormatInfo(q.format()).bits;
    for (size_t b = 0; b < run.blocks; ++b) {
        if (run.scales[b] == E8M0::kNaN)
            continue;
        MxBlock blk;
        blk.n = bs;
        blk.scale_code = run.scales[b];
        if (run.metas != nullptr) {
            blk.bm_index = run.metas[b] & 31u;
            blk.nbm_delta = static_cast<uint8_t>(run.metas[b] >> 5);
        }
        for (int i = 0; i < bs; ++i)
            blk.codes[i] = packedCode(run.codes, b * bs + i, bits);
        q.decodeBlock(blk, out + b * bs, bs);
    }
}

#if MXPLUS_X86

__attribute__((target("avx2"))) void
decodeBlocksAvx2(const MxQuantizer &q, const MxBlockRun &run, float *out)
{
    const size_t bs = static_cast<size_t>(q.blockSize());
    if (!KernelDispatch::cpuHasAvx2Fma() || (bs != 8 && bs % kNR != 0)) {
        decodeBlocksReference(q, run, out);
        return;
    }
    const DecodeTables &t = decodeTables(q.format());
    const int bits = elementFormatInfo(q.format()).bits;
    const bool plus = q.mode() != MxMode::Standard;
    const size_t block_bytes = bs * static_cast<size_t>(bits) / 8;
    // The element codes' scale of block b; 0 for a block stored raw.
    const auto nbmScale = [&](size_t b) {
        float nbm = 0.0f;
        float full = 0.0f;
        if (run.scales[b] != E8M0::kNaN) {
            blockScales(run.scales[b], plus ? run.metas[b] : 0, plus, &nbm,
                        &full);
        }
        return nbm;
    };

    if (bs % kNR == 0) {
        for (size_t b = 0; b < run.blocks; ++b) {
            const __m256 s = _mm256_set1_ps(nbmScale(b));
            decodeRowsAvx2(bits, t, run.codes + b * block_bytes, bs / kNR, s,
                           s, out + b * bs);
        }
    } else {
        size_t b = 0;
        for (; b + 2 <= run.blocks; b += 2) {
            decodeRowsAvx2(bits, t, run.codes + b * block_bytes, 1,
                           _mm256_set1_ps(nbmScale(b)),
                           _mm256_set1_ps(nbmScale(b + 1)), out + b * bs);
        }
        if (b < run.blocks) {
            // An odd last block: pad its codes to a whole row.
            alignas(16) uint8_t row[kNR] = {};
            float vals[kNR];
            std::memcpy(row, run.codes + b * block_bytes, block_bytes);
            const __m256 s = _mm256_set1_ps(nbmScale(b));
            decodeRowsAvx2(bits, t, row, 1, s, s, vals);
            std::memcpy(out + b * bs, vals, bs * sizeof(float));
        }
    }
    if (!plus)
        return;
    for (size_t b = 0; b < run.blocks; ++b) {
        const uint8_t sc = run.scales[b];
        float *dst = out + b * bs;
        if (sc == E8M0::kNaN)
            continue;
        if (sc == E8M0::kZeroBlock) {
            std::fill(dst, dst + bs, 0.0f);
            continue;
        }
        const size_t bm = run.metas[b] & 31u;
        const uint32_t code = packedCode(run.codes, b * bs + bm, bits);
        dst[bm] = t.bm[code] * pow2f(E8M0::decode(sc));
    }
}

#else

void
decodeBlocksAvx2(const MxQuantizer &q, const MxBlockRun &run, float *out)
{
    decodeBlocksReference(q, run, out);
}

#endif // MXPLUS_X86

} // namespace mxplus::kernels
