#include "quant/kv_cache.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "numerics/bfloat16.h"

namespace mugi {
namespace quant {
namespace {

/** BF16 bit pattern stored little-endian in two block bytes. */
void
store_bf16(std::byte* dst, float value)
{
    const std::uint16_t bits =
        numerics::BFloat16::round_to_bits(value);
    dst[0] = static_cast<std::byte>(bits & 0xFF);
    dst[1] = static_cast<std::byte>(bits >> 8);
}

float
load_bf16(const std::byte* src)
{
    const std::uint16_t bits = static_cast<std::uint16_t>(
        static_cast<unsigned>(src[0]) |
        (static_cast<unsigned>(src[1]) << 8));
    return numerics::BFloat16::from_bits(bits).to_float();
}

}  // namespace

KvCache::KvCache(std::size_t num_heads, std::size_t head_dim,
                 KvPrecision precision, BlockPool* pool)
    : num_heads_(num_heads), head_dim_(head_dim),
      precision_(precision)
{
    if (pool == nullptr) {
        owned_pool_ = std::make_unique<BlockPool>(units::Bytes(0));
        pool = owned_pool_.get();
    }
    pool_ = pool;
    block_tokens_ = pool_->block_tokens().value();
    bytes_per_position_ =
        bytes_per_position(num_heads_, head_dim_, precision_).value();
    block_bytes_ = block_tokens_ * bytes_per_position_;
}

KvCache::~KvCache()
{
    release_blocks();
}

KvCache::KvCache(KvCache&& other) noexcept
    : num_heads_(other.num_heads_), head_dim_(other.head_dim_),
      precision_(other.precision_), length_(other.length_),
      owned_pool_(std::move(other.owned_pool_)), pool_(other.pool_),
      table_(std::move(other.table_)),
      block_data_(std::move(other.block_data_)),
      block_tokens_(other.block_tokens_),
      bytes_per_position_(other.bytes_per_position_),
      block_bytes_(other.block_bytes_)
{
    // Leave the source coherent (drained, not just unspecified): its
    // destructor must release nothing and its length must agree with
    // its empty block table.  Null the pool and cached geometry too:
    // after owned_pool_ moved away, the source's pool_ would point at
    // storage owned by the destination (or dangle once the
    // destination dies), and an append on the moved-from object would
    // silently allocate from it -- a use-after-move landmine.  append
    // asserts on the null pool instead.
    other.length_ = 0;
    other.table_.clear();
    other.block_data_.clear();
    other.pool_ = nullptr;
    other.block_tokens_ = 0;
    other.bytes_per_position_ = 0;
    other.block_bytes_ = 0;
}

KvCache&
KvCache::operator=(KvCache&& other) noexcept
{
    if (this != &other) {
        release_blocks();
        num_heads_ = other.num_heads_;
        head_dim_ = other.head_dim_;
        precision_ = other.precision_;
        length_ = other.length_;
        owned_pool_ = std::move(other.owned_pool_);
        pool_ = other.pool_;
        table_ = std::move(other.table_);
        block_data_ = std::move(other.block_data_);
        block_tokens_ = other.block_tokens_;
        bytes_per_position_ = other.bytes_per_position_;
        block_bytes_ = other.block_bytes_;
        other.length_ = 0;
        other.table_.clear();
        other.block_data_.clear();
        other.pool_ = nullptr;
        other.block_tokens_ = 0;
        other.bytes_per_position_ = 0;
        other.block_bytes_ = 0;
    }
    return *this;
}

void
KvCache::release_blocks()
{
    if (pool_ == nullptr) {
        // Moved-from: the blocks (and possibly the pool itself) went
        // with the move; there is nothing to release.
        assert(table_.empty());
        return;
    }
    for (const BlockId id : table_) {
        pool_->release(id);
    }
    table_.clear();
    block_data_.clear();
    length_ = 0;
}

void
KvCache::share_prefix_from(const KvCache& src,
                           units::Positions positions_in)
{
    const std::size_t positions = positions_in.value();
    assert(pool_ != nullptr && "moved-from cache cannot share");
    assert(pool_ == src.pool_ &&
           "prefix sharing requires one shared pool");
    assert(length_ == 0 && table_.empty() &&
           "share_prefix_from needs an empty destination");
    assert(num_heads_ == src.num_heads_ &&
           head_dim_ == src.head_dim_ &&
           precision_ == src.precision_ &&
           "prefix sharing requires identical geometry and "
           "precision");
    assert(positions <= src.length_);
    if (positions == 0) {
        return;
    }
    const std::size_t blocks =
        (positions + block_tokens_ - 1) / block_tokens_;
    table_.reserve(blocks);
    block_data_.reserve(blocks);
    for (std::size_t b = 0; b < blocks; ++b) {
        const BlockId id = src.table_[b];
        pool_->retain(id);
        table_.push_back(id);
        block_data_.push_back(src.block_data_[b]);
    }
    length_ = positions;
}

units::Blocks
KvCache::shared_blocks() const
{
    std::size_t shared = 0;
    for (const BlockId id : table_) {
        shared += pool_->ref_count(id) > 1 ? 1 : 0;
    }
    return units::Blocks(shared);
}

std::size_t
KvCache::vector_bytes() const
{
    if (precision_ == KvPrecision::kFloat) {
        return head_dim_ * sizeof(float);
    }
    // One BF16 scale (2 bytes) + packed nibbles, two codes per byte.
    return 2 + (head_dim_ + 1) / 2;
}

std::byte*
KvCache::position_data(std::size_t pos)
{
    return block_data_[pos / block_tokens_] +
           (pos % block_tokens_) * bytes_per_position_;
}

const std::byte*
KvCache::position_data(std::size_t pos) const
{
    return block_data_[pos / block_tokens_] +
           (pos % block_tokens_) * bytes_per_position_;
}

KvCache::QuantVector
KvCache::quantize_vector(const float* data) const
{
    QuantVector q;
    q.codes.resize(head_dim_);
    float max_abs = 0.0f;
    for (std::size_t d = 0; d < head_dim_; ++d) {
        max_abs = std::max(max_abs, std::fabs(data[d]));
    }
    q.scale = numerics::bf16_round(
        max_abs / static_cast<float>(numerics::kInt4MaxMagnitude));
    for (std::size_t d = 0; d < head_dim_; ++d) {
        int code = 0;
        if (q.scale > 0.0f) {
            code =
                static_cast<int>(std::nearbyint(data[d] / q.scale));
        }
        q.codes[d] = numerics::Int4::from_int(code);
    }
    return q;
}

void
KvCache::append(const support::MatrixF& k_heads,
                const support::MatrixF& v_heads)
{
    assert(pool_ != nullptr && "append on a moved-from KvCache");
    assert(k_heads.rows() == num_heads_ &&
           k_heads.cols() == head_dim_);
    assert(v_heads.rows() == num_heads_ &&
           v_heads.cols() == head_dim_);
    if (length_ == table_.size() * block_tokens_) {
        const BlockId id =
            pool_->allocate(units::Bytes(block_bytes_));
        table_.push_back(id);
        // Block storage never moves while the block is live, so the
        // data pointer may be cached -- reads skip the pool lock.
        block_data_.push_back(pool_->data(id));
    } else {
        // Copy-on-write: never append into a block another cache can
        // read.  Clone only this cache's live prefix of the block;
        // the rest of the fresh block stays zeroed, which the INT4
        // nibble-OR path below depends on.
        const std::size_t tail = length_ / block_tokens_;
        if (pool_->ref_count(table_[tail]) > 1) {
            const BlockId fresh =
                pool_->allocate(units::Bytes(block_bytes_));
            std::byte* fresh_data = pool_->data(fresh);
            const std::size_t live_bytes =
                (length_ % block_tokens_) * bytes_per_position_;
            std::memcpy(fresh_data, block_data_[tail], live_bytes);
            pool_->release(table_[tail]);
            table_[tail] = fresh;
            block_data_[tail] = fresh_data;
        }
    }
    std::byte* dst = position_data(length_);
    const std::size_t vb = vector_bytes();
    for (std::size_t h = 0; h < num_heads_; ++h) {
        std::byte* kdst = dst + h * vb;
        std::byte* vdst = dst + (num_heads_ + h) * vb;
        if (precision_ == KvPrecision::kFloat) {
            std::memcpy(kdst, k_heads.row_data(h), vb);
            std::memcpy(vdst, v_heads.row_data(h), vb);
            continue;
        }
        const QuantVector kq = quantize_vector(k_heads.row_data(h));
        const QuantVector vq = quantize_vector(v_heads.row_data(h));
        store_bf16(kdst, kq.scale);
        store_bf16(vdst, vq.scale);
        for (std::size_t d = 0; d < head_dim_; ++d) {
            // Low nibble first, matching numerics::PackedInt4.
            const std::size_t byte_index = 2 + d / 2;
            const unsigned shift = (d % 2) * 4;
            kdst[byte_index] |= static_cast<std::byte>(
                kq.codes[d].encode() << shift);
            vdst[byte_index] |= static_cast<std::byte>(
                vq.codes[d].encode() << shift);
        }
    }
    ++length_;
}

void
KvCache::decode_vector(const std::byte* src, float* out) const
{
    if (precision_ == KvPrecision::kFloat) {
        std::memcpy(out, src, head_dim_ * sizeof(float));
        return;
    }
    // An INT4 code takes one of 16 levels, so multiply each level by
    // the vector's scale once and let every element look its product
    // up: the same level * scale float multiply per element, done
    // once per level.
    const float scale = load_bf16(src);
    float lut[16];
    for (std::uint8_t c = 0; c < 16; ++c) {
        lut[c] =
            static_cast<float>(numerics::Int4::decode(c).value()) *
            scale;
    }
    // Low nibble first, matching append().
    const std::byte* packed = src + 2;
    const std::size_t pairs = head_dim_ / 2;
    for (std::size_t i = 0; i < pairs; ++i) {
        const unsigned b = static_cast<unsigned>(packed[i]);
        out[2 * i] = lut[b & 0xF];
        out[2 * i + 1] = lut[b >> 4];
    }
    if (head_dim_ % 2 != 0) {
        out[head_dim_ - 1] =
            lut[static_cast<unsigned>(packed[pairs]) & 0xF];
    }
}

void
KvCache::read_key(std::size_t head, units::Positions pos_in,
                  float* out) const
{
    const std::size_t pos = pos_in.value();
    assert(head < num_heads_ && pos < length_);
    decode_vector(position_data(pos) + head * vector_bytes(), out);
}

void
KvCache::read_value(std::size_t head, units::Positions pos_in,
                    float* out) const
{
    const std::size_t pos = pos_in.value();
    assert(head < num_heads_ && pos < length_);
    decode_vector(position_data(pos) +
                      (num_heads_ + head) * vector_bytes(),
                  out);
}

void
KvCache::read_range(std::size_t vector_offset, std::size_t begin,
                    std::size_t end, float* out) const
{
    // One block-table lookup per *block*, not per position: decode a
    // whole run of resident positions from the block's storage before
    // advancing to the next block.
    std::size_t pos = begin;
    while (pos < end) {
        const std::size_t in_block = pos % block_tokens_;
        const std::size_t run =
            std::min(end - pos, block_tokens_ - in_block);
        const std::byte* base = block_data_[pos / block_tokens_] +
                                in_block * bytes_per_position_ +
                                vector_offset;
        for (std::size_t i = 0; i < run; ++i) {
            decode_vector(base + i * bytes_per_position_, out);
            out += head_dim_;
        }
        pos += run;
    }
}

void
KvCache::read_keys(std::size_t head, units::Positions begin_in,
                   units::Positions end_in, float* out) const
{
    const std::size_t begin = begin_in.value();
    const std::size_t end = end_in.value();
    assert(head < num_heads_ && begin <= end && end <= length_);
    read_range(head * vector_bytes(), begin, end, out);
}

void
KvCache::read_values(std::size_t head, units::Positions begin_in,
                     units::Positions end_in, float* out) const
{
    const std::size_t begin = begin_in.value();
    const std::size_t end = end_in.value();
    assert(head < num_heads_ && begin <= end && end <= length_);
    read_range((num_heads_ + head) * vector_bytes(), begin, end, out);
}

numerics::Int4
KvCache::key_code(std::size_t head, units::Positions pos_in,
                  std::size_t d) const
{
    const std::size_t pos = pos_in.value();
    assert(precision_ == KvPrecision::kInt4);
    assert(head < num_heads_ && pos < length_ && d < head_dim_);
    const std::byte* src =
        position_data(pos) + head * vector_bytes();
    const unsigned nibble =
        (static_cast<unsigned>(src[2 + d / 2]) >> ((d % 2) * 4)) &
        0xF;
    return numerics::Int4::decode(static_cast<std::uint8_t>(nibble));
}

float
KvCache::key_scale(std::size_t head, units::Positions pos_in) const
{
    const std::size_t pos = pos_in.value();
    assert(precision_ == KvPrecision::kInt4);
    assert(head < num_heads_ && pos < length_);
    return load_bf16(position_data(pos) + head * vector_bytes());
}

units::Bytes
KvCache::bytes_per_position(std::size_t num_heads,
                            std::size_t head_dim,
                            KvPrecision precision)
{
    if (precision == KvPrecision::kFloat) {
        // K and V float vectors per head.
        return units::Bytes(2 * num_heads * head_dim * sizeof(float));
    }
    // K and V per head: packed INT4 nibbles + one BF16 scale.
    return units::Bytes(2 * num_heads * ((head_dim + 1) / 2 + 2));
}

}  // namespace quant
}  // namespace mugi
