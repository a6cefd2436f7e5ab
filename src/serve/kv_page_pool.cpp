#include "serve/kv_page_pool.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace mxplus {

KvPagePool::KvPagePool(size_t page_tokens, size_t floats_per_page,
                       size_t max_pages)
    : page_tokens_(page_tokens), floats_per_page_(floats_per_page),
      max_pages_(max_pages), slab_limit_(max_pages)
{
    MXPLUS_CHECK_MSG(page_tokens_ > 0 && floats_per_page_ > 0,
                     "KvPagePool: degenerate page geometry");
    // Bounded pools preallocate the slab-pointer table so pageData()
    // never races with growth (see the thread-safety note in the header).
    if (max_pages_ > 0) {
        slabs_.reserve(max_pages_);
        refs_.reserve(max_pages_);
    }
}

void
KvPagePool::enableCompression(std::unique_ptr<const PageCodec> codec,
                              const PageRegions &regions)
{
    std::lock_guard<std::mutex> lock(mu_);
    MXPLUS_CHECK_MSG(max_pages_ > 0,
                     "page compression requires a bounded pool");
    MXPLUS_CHECK_MSG(slabs_.empty(),
                     "enableCompression must precede the first acquire");
    MXPLUS_CHECK(codec != nullptr);
    MXPLUS_CHECK(regions.k_floats > 0 && regions.v_floats > 0 &&
                 regions.k_off + regions.k_floats <= floats_per_page_ &&
                 regions.v_off + regions.v_floats <= floats_per_page_);
    codec_ = std::move(codec);
    regions_ = regions;
    // Compressed pages charge less than a slab, so more than
    // maxPages() of them can be live at once; the charge floor bounds
    // the table at kMaxCompressedRatio x. Everything indexed by page
    // id is preallocated here so lock-free readers never observe a
    // reallocation.
    slab_limit_ = max_pages_ * kMaxCompressedRatio;
    budget_bytes_ = max_pages_ * pageBytes();
    slabs_.reserve(slab_limit_);
    refs_.reserve(slab_limit_);
    charges_.assign(slab_limit_, 0);
    streams_.assign(slab_limit_, CompressedPage{});
    compressed_flags_ =
        std::make_unique<std::atomic<uint8_t>[]>(slab_limit_);
    for (size_t i = 0; i < slab_limit_; ++i)
        compressed_flags_[i].store(0, std::memory_order_relaxed);
}

size_t
KvPagePool::usedPages() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return used_;
}

size_t
KvPagePool::freePages() const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (max_pages_ == 0)
        return SIZE_MAX;
    if (codec_ == nullptr)
        return max_pages_ - used_;
    // Byte ledger: how many more full (uncompressed) pages still fit.
    const size_t byte_free = budget_bytes_ > used_bytes_
                                 ? (budget_bytes_ - used_bytes_) /
                                       pageBytes()
                                 : 0;
    const size_t table_free =
        free_.size() + (slab_limit_ - slabs_.size());
    return std::min(byte_free, table_free);
}

size_t
KvPagePool::usedBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return codec_ ? used_bytes_ : used_ * pageBytes();
}

size_t
KvPagePool::allocatedPages() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return slabs_.size();
}

uint32_t
KvPagePool::acquire()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (codec_ && used_bytes_ + pageBytes() > budget_bytes_)
        return kNoPage; // byte budget exhausted
    if (!free_.empty()) {
        const uint32_t id = free_.back();
        free_.pop_back();
        if (codec_) {
            // The page may have been compressed in a previous life:
            // give it a fresh slab and drop the stale stream.
            if (compressed_flags_[id].load(std::memory_order_relaxed)) {
                compressed_flags_[id].store(0, std::memory_order_release);
                streams_[id] = CompressedPage{};
                --compressed_pages_;
            }
            if (!slabs_[id])
                slabs_[id] =
                    std::make_unique<float[]>(floats_per_page_);
            charges_[id] = pageBytes();
            used_bytes_ += pageBytes();
        }
        refs_[id] = 1;
        ++used_;
        return id;
    }
    if (max_pages_ > 0 && slabs_.size() >= slab_limit_)
        return kNoPage; // recoverable: caller defers, evicts or preempts
    slabs_.push_back(std::make_unique<float[]>(floats_per_page_));
    refs_.push_back(1);
    slab_count_.store(slabs_.size(), std::memory_order_release);
    if (codec_) {
        charges_[slabs_.size() - 1] = pageBytes();
        used_bytes_ += pageBytes();
    }
    ++used_;
    return static_cast<uint32_t>(slabs_.size() - 1);
}

void
KvPagePool::ref(uint32_t id)
{
    std::lock_guard<std::mutex> lock(mu_);
    MXPLUS_CHECK_MSG(id < slabs_.size() && refs_[id] > 0,
                     "KvPagePool::ref on a free or unknown page");
    ++refs_[id];
}

void
KvPagePool::release(uint32_t id)
{
    std::lock_guard<std::mutex> lock(mu_);
    MXPLUS_CHECK(id < slabs_.size() && refs_[id] > 0 && used_ > 0);
    if (--refs_[id] == 0) {
        if (codec_) {
            used_bytes_ -= charges_[id];
            charges_[id] = 0;
            // Reclaim the stream eagerly; the slab (if any) is kept
            // for recycling like in the uncompressed pool.
            if (compressed_flags_[id].load(std::memory_order_relaxed)) {
                compressed_flags_[id].store(0, std::memory_order_release);
                streams_[id] = CompressedPage{};
                --compressed_pages_;
            }
        }
        free_.push_back(id);
        --used_;
    }
}

size_t
KvPagePool::refCount(uint32_t id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    MXPLUS_CHECK(id < slabs_.size());
    return refs_[id];
}

bool
KvPagePool::compressPage(uint32_t id)
{
    std::lock_guard<std::mutex> lock(mu_);
    MXPLUS_CHECK_MSG(codec_ != nullptr,
                     "compressPage without enableCompression");
    MXPLUS_CHECK(id < slabs_.size() && refs_[id] > 0);
    if (compressed_flags_[id].load(std::memory_order_relaxed))
        return true;
    const float *slab = slabs_[id].get();
    CompressedPage cp;
    std::vector<uint8_t> vbytes;
    cp.k_bytes = codec_->encode(slab + regions_.k_off, regions_.k_floats,
                                cp.bytes);
    codec_->encode(slab + regions_.v_off, regions_.v_floats, vbytes);
    const size_t total = cp.bytes.size() + vbytes.size();
    if (total >= pageBytes())
        return false; // incompressible page: stays raw, still correct
    cp.bytes.insert(cp.bytes.end(), vbytes.begin(), vbytes.end());
    streams_[id] = std::move(cp);
    const size_t charge =
        std::max(total, pageBytes() / kMaxCompressedRatio);
    used_bytes_ = used_bytes_ - charges_[id] + charge;
    charges_[id] = charge;
    slabs_[id].reset(); // frozen: no writer may touch it again
    ++compressed_pages_;
    payload_bytes_total_ +=
        (regions_.k_floats + regions_.v_floats) * sizeof(float);
    stream_bytes_total_ += total;
    compressed_flags_[id].store(1, std::memory_order_release);
    return true;
}

bool
KvPagePool::isCompressed(uint32_t id) const
{
    if (codec_ == nullptr)
        return false;
    MXPLUS_CHECK(id < slab_count_.load(std::memory_order_acquire));
    return compressed_flags_[id].load(std::memory_order_acquire) != 0;
}

const float *
KvPagePool::pageRegion(uint32_t id, PageRegion region,
                       std::vector<float> &buf) const
{
    MXPLUS_CHECK_MSG(codec_ != nullptr,
                     "pageRegion without enableCompression");
    MXPLUS_CHECK(id < slab_count_.load(std::memory_order_acquire));
    const size_t off =
        region == PageRegion::kKey ? regions_.k_off : regions_.v_off;
    if (!compressed_flags_[id].load(std::memory_order_acquire))
        return slabs_[id].get() + off; // zero copy
    const CompressedPage &cp = streams_[id];
    const size_t nfloats = region == PageRegion::kKey ? regions_.k_floats
                                                      : regions_.v_floats;
    const uint8_t *p = region == PageRegion::kKey
                           ? cp.bytes.data()
                           : cp.bytes.data() + cp.k_bytes;
    const size_t sz = region == PageRegion::kKey
                          ? cp.k_bytes
                          : cp.bytes.size() - cp.k_bytes;
    buf.resize(nfloats);
    decode_calls_.fetch_add(1, std::memory_order_relaxed);
    if (!codec_->decode(p, sz, buf.data(), nfloats))
        return nullptr; // corrupted stream: checksum layer handles it
    return buf.data();
}

size_t
KvPagePool::pageResidentBytes(uint32_t id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    MXPLUS_CHECK(id < slabs_.size() && refs_[id] > 0);
    return codec_ ? charges_[id] : pageBytes();
}

size_t
KvPagePool::compressedPages() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return compressed_pages_;
}

double
KvPagePool::compressedRatio() const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (stream_bytes_total_ == 0)
        return 1.0;
    return static_cast<double>(payload_bytes_total_) /
           static_cast<double>(stream_bytes_total_);
}

size_t
KvPagePool::compressedStreamBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stream_bytes_total_;
}

void
KvPagePool::debugFlipPageBit(uint32_t id, uint64_t bit_draw)
{
    std::lock_guard<std::mutex> lock(mu_);
    MXPLUS_CHECK(id < slabs_.size() && refs_[id] > 0);
    if (codec_ && compressed_flags_[id].load(std::memory_order_relaxed)) {
        std::vector<uint8_t> &bytes = streams_[id].bytes;
        const uint64_t bit = bit_draw % (bytes.size() * 8);
        bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        return;
    }
    float *data = slabs_[id].get();
    const uint64_t bit = bit_draw % (floats_per_page_ * 32);
    uint32_t word;
    std::memcpy(&word, data + bit / 32, sizeof(word));
    word ^= 1u << (bit % 32);
    std::memcpy(data + bit / 32, &word, sizeof(word));
}

bool
KvPagePool::auditInvariants() const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (refs_.size() != slabs_.size())
        return false;
    if (slab_count_.load(std::memory_order_acquire) != slabs_.size())
        return false;
    size_t referenced = 0;
    for (const uint32_t r : refs_)
        referenced += r > 0 ? 1 : 0;
    if (referenced != used_)
        return false;
    if (free_.size() + used_ != slabs_.size())
        return false;
    std::vector<uint8_t> seen(slabs_.size(), 0);
    for (const uint32_t id : free_) {
        if (id >= slabs_.size() || refs_[id] != 0 || seen[id])
            return false;
        seen[id] = 1;
    }
    if (codec_ != nullptr) {
        // Byte-ledger closure: live charges sum to used_bytes_; every
        // compressed page is live, slab-free and stream-backed; every
        // live raw page has a slab.
        size_t charge_sum = 0;
        size_t compressed = 0;
        for (size_t id = 0; id < slabs_.size(); ++id) {
            const bool live = refs_[id] > 0;
            const bool comp =
                compressed_flags_[id].load(std::memory_order_relaxed) != 0;
            if (live)
                charge_sum += charges_[id];
            else if (charges_[id] != 0 || comp)
                return false;
            if (comp) {
                ++compressed;
                if (slabs_[id] || streams_[id].bytes.empty() ||
                    charges_[id] < pageBytes() / kMaxCompressedRatio)
                    return false;
            } else if (live && !slabs_[id]) {
                return false;
            }
        }
        if (charge_sum != used_bytes_ || compressed != compressed_pages_)
            return false;
        if (used_bytes_ > budget_bytes_)
            return false;
    }
    return true;
}

float *
KvPagePool::pageData(uint32_t id)
{
    // Bounds-check against the atomic mirror, not slabs_.size():
    // another cache may be growing the vector under the mutex right
    // now, and an unsynchronized size() read would be a data race even
    // though the slab pointers themselves never move (bounded pools
    // preallocate the table). acquire() published the count with
    // release order, so an id this caller legitimately owns is always
    // covered.
    MXPLUS_CHECK(id < slab_count_.load(std::memory_order_acquire));
    MXPLUS_CHECK_MSG(
        codec_ == nullptr ||
            !compressed_flags_[id].load(std::memory_order_acquire),
        "writable pageData on a compressed (frozen) page");
    return slabs_[id].get();
}

const float *
KvPagePool::pageData(uint32_t id) const
{
    MXPLUS_CHECK(id < slab_count_.load(std::memory_order_acquire));
    return slabs_[id].get();
}

} // namespace mxplus
