#include "quant/kv_cache.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

#include <gtest/gtest.h>

#include "support/audit.h"
#include "support/rng.h"

namespace mugi {
namespace quant {
namespace {

support::MatrixF
random_heads(std::size_t heads, std::size_t dim, std::mt19937& rng)
{
    support::MatrixF m(heads, dim);
    support::fill_gaussian(m, rng, 0.0f, 1.0f);
    return m;
}

TEST(KvCache, FloatStorageIsExact)
{
    std::mt19937 rng(241);
    KvCache cache(4, 16, KvPrecision::kFloat);
    std::vector<support::MatrixF> ks, vs;
    for (int t = 0; t < 10; ++t) {
        ks.push_back(random_heads(4, 16, rng));
        vs.push_back(random_heads(4, 16, rng));
        cache.append(ks.back(), vs.back());
    }
    EXPECT_EQ(cache.length(), units::Positions(10));
    std::vector<float> out(16);
    for (std::size_t h = 0; h < 4; ++h) {
        for (std::size_t t = 0; t < 10; ++t) {
            cache.read_key(h, units::Positions(t), out.data());
            for (std::size_t d = 0; d < 16; ++d) {
                EXPECT_EQ(out[d], ks[t].at(h, d));
            }
            cache.read_value(h, units::Positions(t), out.data());
            for (std::size_t d = 0; d < 16; ++d) {
                EXPECT_EQ(out[d], vs[t].at(h, d));
            }
        }
    }
}

TEST(KvCache, Int4ErrorBounded)
{
    std::mt19937 rng(251);
    KvCache cache(2, 32, KvPrecision::kInt4);
    std::vector<support::MatrixF> ks;
    for (int t = 0; t < 20; ++t) {
        ks.push_back(random_heads(2, 32, rng));
        cache.append(ks.back(), ks.back());
    }
    std::vector<float> out(32);
    for (std::size_t h = 0; h < 2; ++h) {
        for (std::size_t t = 0; t < 20; ++t) {
            cache.read_key(h, units::Positions(t), out.data());
            const float scale =
                cache.key_scale(h, units::Positions(t));
            for (std::size_t d = 0; d < 32; ++d) {
                // Half-step quantization error plus BF16 scale round.
                EXPECT_LE(std::fabs(out[d] - ks[t].at(h, d)),
                          scale * 0.51f + 1e-6f);
            }
        }
    }
}

TEST(KvCache, Int4CompressionFactor)
{
    std::mt19937 rng(257);
    KvCache fp(8, 128, KvPrecision::kFloat);
    KvCache q4(8, 128, KvPrecision::kInt4);
    for (int t = 0; t < 64; ++t) {
        const auto k = random_heads(8, 128, rng);
        const auto v = random_heads(8, 128, rng);
        fp.append(k, v);
        q4.append(k, v);
    }
    // Sec. 2.3.3's ~4x reduction is against the BF16 storage the
    // datapath assumes; against the exact float storage the device
    // accounting reports it is ~8x (minus scale overhead).  Equal
    // lengths page into equally many blocks, so block rounding
    // cancels out of the ratio.
    const double ratio =
        static_cast<double>(fp.memory_bytes().value()) /
        static_cast<double>(q4.memory_bytes().value());
    EXPECT_GT(ratio, 7.0);
    EXPECT_LE(ratio, 8.0);
}

TEST(KvCache, CodesAreValidInt4)
{
    std::mt19937 rng(263);
    KvCache cache(1, 8, KvPrecision::kInt4);
    cache.append(random_heads(1, 8, rng), random_heads(1, 8, rng));
    for (std::size_t d = 0; d < 8; ++d) {
        const numerics::Int4 code =
            cache.key_code(0, units::Positions(0), d);
        EXPECT_GE(code.value(), -7);
        EXPECT_LE(code.value(), 7);
        // Fits the 8-cycle temporal sweep of the Mugi rows.
        EXPECT_LT(code.magnitude, 8);
    }
}

TEST(KvCache, AttentionScoreErrorSmall)
{
    // End-to-end KVQ sanity: dot products against quantized keys stay
    // close, which is what keeps KVQ perplexity deltas at ~0.02
    // (Sec. 2.3.3).
    std::mt19937 rng(269);
    const std::size_t hd = 64;
    KvCache exact(1, hd, KvPrecision::kFloat);
    KvCache quant(1, hd, KvPrecision::kInt4);
    for (int t = 0; t < 32; ++t) {
        const auto k = random_heads(1, hd, rng);
        exact.append(k, k);
        quant.append(k, k);
    }
    support::MatrixF qvec = random_heads(1, hd, rng);
    std::vector<float> ke(hd), kq(hd);
    for (std::size_t t = 0; t < 32; ++t) {
        exact.read_key(0, units::Positions(t), ke.data());
        quant.read_key(0, units::Positions(t), kq.data());
        float s_exact = 0.0f, s_quant = 0.0f;
        for (std::size_t d = 0; d < hd; ++d) {
            s_exact += qvec.at(0, d) * ke[d];
            s_quant += qvec.at(0, d) * kq[d];
        }
        // Relative to the score scale sqrt(hd) ~ 8.
        EXPECT_NEAR(s_quant, s_exact, 2.5f) << t;
    }
}

TEST(KvCache, MemoryBytesIsBlockExactPerPrecision)
{
    // memory_bytes() is the admission-budget footprint: packed INT4
    // nibbles + one BF16 scale per K/V vector, or full float storage,
    // rounded up to the blocks actually allocated from the pool.
    const std::size_t heads = 8, hd = 64;
    const std::size_t int4_per_pos = 2 * heads * (hd / 2 + 2);
    const std::size_t float_per_pos = 2 * heads * hd * sizeof(float);
    EXPECT_EQ(KvCache::bytes_per_position(heads, hd,
                                          KvPrecision::kInt4),
              units::Bytes(int4_per_pos));
    EXPECT_EQ(KvCache::bytes_per_position(heads, hd,
                                          KvPrecision::kFloat),
              units::Bytes(float_per_pos));
    // Odd head_dim rounds the nibble packing up.
    EXPECT_EQ(KvCache::bytes_per_position(1, 5, KvPrecision::kInt4),
              units::Bytes(2 * (3 + 2)));

    std::mt19937 rng(31);
    const std::size_t B = 2;  // Tokens per block.
    BlockPool pool(units::Bytes(0), units::Tokens(B));
    KvCache quant(heads, hd, KvPrecision::kInt4, &pool);
    KvCache exact(heads, hd, KvPrecision::kFloat, &pool);
    EXPECT_EQ(quant.memory_bytes(), units::Bytes(0));
    EXPECT_EQ(quant.block_bytes(), units::Bytes(B * int4_per_pos));
    EXPECT_EQ(exact.block_bytes(), units::Bytes(B * float_per_pos));
    for (std::size_t t = 1; t <= 5; ++t) {
        const auto kv = random_heads(heads, hd, rng);
        quant.append(kv, kv);
        exact.append(kv, kv);
        // Growth is block-granular and visible -- the quantity a
        // scheduler's KV budget bounds.
        const std::size_t blocks = (t + B - 1) / B;
        EXPECT_EQ(quant.blocks_in_use(), units::Blocks(blocks));
        EXPECT_EQ(quant.memory_bytes(),
                  units::Bytes(blocks * B * int4_per_pos));
        EXPECT_EQ(exact.memory_bytes(),
                  units::Bytes(blocks * B * float_per_pos));
    }
    // The shared pool accounts both caches' physical bytes exactly.
    EXPECT_EQ(pool.bytes_in_use(),
              quant.memory_bytes() + exact.memory_bytes());
    // An append within the last block costs nothing new; crossing a
    // block boundary allocates exactly one more block.
    const units::Bytes before = pool.bytes_in_use();
    const auto kv6 = random_heads(heads, hd, rng);
    quant.append(kv6, kv6);  // Fills block 3 (positions 5-6).
    EXPECT_EQ(pool.bytes_in_use(), before);
    quant.append(kv6, kv6);  // Opens block 4.
    EXPECT_EQ(pool.bytes_in_use(), before + quant.block_bytes());
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
    // The deprecated name delegates to the exact accounting.
    EXPECT_EQ(exact.byte_size(), exact.memory_bytes());
    EXPECT_EQ(quant.byte_size(), quant.memory_bytes());
#pragma GCC diagnostic pop
}

TEST(KvCache, PagedReadsAreByteIdenticalAcrossBlockSizes)
{
    // The paged-cache acceptance bar: block layout must never touch
    // numerics.  A block size >= length is the former contiguous
    // storage, so agreement across block sizes (including the
    // private-pool default) proves paged reads are byte-identical to
    // the contiguous cache for both precisions.
    const std::size_t heads = 3, hd = 7, T = 33;
    std::mt19937 rng(101);
    std::vector<support::MatrixF> ks, vs;
    for (std::size_t t = 0; t < T; ++t) {
        ks.push_back(random_heads(heads, hd, rng));
        vs.push_back(random_heads(heads, hd, rng));
    }
    for (const KvPrecision precision :
         {KvPrecision::kFloat, KvPrecision::kInt4}) {
        // One block holds everything.
        BlockPool contiguous(units::Bytes(0), units::Tokens(T));
        BlockPool tiny(units::Bytes(0), units::Tokens(1));
        BlockPool odd(units::Bytes(0), units::Tokens(5));
        KvCache reference(heads, hd, precision, &contiguous);
        std::vector<KvCache> paged;
        paged.emplace_back(heads, hd, precision, &tiny);
        paged.emplace_back(heads, hd, precision, &odd);
        paged.emplace_back(heads, hd, precision);  // Private pool.
        for (std::size_t t = 0; t < T; ++t) {
            reference.append(ks[t], vs[t]);
            for (KvCache& cache : paged) {
                cache.append(ks[t], vs[t]);
            }
        }
        std::vector<float> want(hd), got(hd);
        for (std::size_t h = 0; h < heads; ++h) {
            for (std::size_t t = 0; t < T; ++t) {
                const units::Positions pos(t);
                reference.read_key(h, pos, want.data());
                for (const KvCache& cache : paged) {
                    cache.read_key(h, pos, got.data());
                    for (std::size_t d = 0; d < hd; ++d) {
                        EXPECT_EQ(got[d], want[d])
                            << "key h=" << h << " t=" << t;
                    }
                }
                reference.read_value(h, pos, want.data());
                for (const KvCache& cache : paged) {
                    cache.read_value(h, pos, got.data());
                    for (std::size_t d = 0; d < hd; ++d) {
                        EXPECT_EQ(got[d], want[d])
                            << "value h=" << h << " t=" << t;
                    }
                }
                if (precision == KvPrecision::kInt4) {
                    for (const KvCache& cache : paged) {
                        EXPECT_EQ(cache.key_scale(h, pos),
                                  reference.key_scale(h, pos));
                        for (std::size_t d = 0; d < hd; ++d) {
                            EXPECT_EQ(cache.key_code(h, pos, d),
                                      reference.key_code(h, pos, d));
                        }
                    }
                }
            }
        }
    }
}

TEST(KvCache, BatchedRangeReadsAreByteIdenticalToPerPositionReads)
{
    // read_keys/read_values (the fused-decode gather) must decode
    // exactly the bytes read_key/read_value produce, for both
    // precisions, across block-boundary-straddling ranges and block
    // sizes -- including an empty range and the full context.
    const std::size_t heads = 3, hd = 7, T = 23;
    std::mt19937 rng(811);
    std::vector<support::MatrixF> ks, vs;
    for (std::size_t t = 0; t < T; ++t) {
        ks.push_back(random_heads(heads, hd, rng));
        vs.push_back(random_heads(heads, hd, rng));
    }
    for (const KvPrecision precision :
         {KvPrecision::kFloat, KvPrecision::kInt4}) {
        for (const std::size_t block_tokens : {1u, 5u, 64u}) {
            BlockPool pool(units::Bytes(0),
                           units::Tokens(block_tokens));
            KvCache cache(heads, hd, precision, &pool);
            for (std::size_t t = 0; t < T; ++t) {
                cache.append(ks[t], vs[t]);
            }
            const struct {
                std::size_t begin, end;
            } ranges[] = {{0, T}, {0, 1}, {4, 7}, {3, 21},
                          {22, 23}, {6, 6}};
            std::vector<float> want(hd);
            for (const auto& range : ranges) {
                const std::size_t count = range.end - range.begin;
                std::vector<float> keys(count * hd, -1.0f);
                std::vector<float> values(count * hd, -1.0f);
                for (std::size_t h = 0; h < heads; ++h) {
                    cache.read_keys(h, units::Positions(range.begin),
                                    units::Positions(range.end),
                                    keys.data());
                    cache.read_values(h,
                                      units::Positions(range.begin),
                                      units::Positions(range.end),
                                      values.data());
                    for (std::size_t i = 0; i < count; ++i) {
                        cache.read_key(
                            h, units::Positions(range.begin + i),
                            want.data());
                        for (std::size_t d = 0; d < hd; ++d) {
                            EXPECT_EQ(keys[i * hd + d], want[d])
                                << "key h=" << h << " pos "
                                << range.begin + i;
                        }
                        cache.read_value(
                            h, units::Positions(range.begin + i),
                            want.data());
                        for (std::size_t d = 0; d < hd; ++d) {
                            EXPECT_EQ(values[i * hd + d], want[d])
                                << "value h=" << h << " pos "
                                << range.begin + i;
                        }
                    }
                }
            }
        }
    }
}

/** Bit pattern of @p v, so -0.0f and +0.0f compare unequal. */
std::uint32_t
bits(float v)
{
    return std::bit_cast<std::uint32_t>(v);
}

TEST(KvCache, Int4ReadsEqualCodeTimesScaleFromTheAccessors)
{
    // Every dequantized key element -- batched (read_keys) and per
    // position (read_key) -- must be exactly float(code) * scale from
    // the raw-code and scale accessors, for even and odd head_dim
    // (the tail nibble), ranges crossing block boundaries, and a
    // cache whose prefix blocks are shared with a donor and whose
    // partial tail block was copied on write.  Values decode through
    // the same per-vector routine; read_values must match
    // read_value element for element.
    std::mt19937 rng(823);
    const std::size_t heads = 2;
    for (const std::size_t hd : {7u, 16u}) {
        BlockPool pool(units::Bytes(0), units::Tokens(4));
        KvCache donor(heads, hd, KvPrecision::kInt4, &pool);
        for (int t = 0; t < 10; ++t) {
            donor.append(random_heads(heads, hd, rng),
                         random_heads(heads, hd, rng));
        }
        KvCache sharer(heads, hd, KvPrecision::kInt4, &pool);
        sharer.share_prefix_from(donor, units::Positions(6));
        for (int t = 0; t < 5; ++t) {
            sharer.append(random_heads(heads, hd, rng),
                          random_heads(heads, hd, rng));
        }
        ASSERT_EQ(sharer.shared_blocks(), units::Blocks(1));
        for (const KvCache* cache : {&donor, &sharer}) {
            const std::size_t len = cache->length().value();
            const struct {
                std::size_t begin, end;
            } ranges[] = {{0, len}, {3, 9}, {4, 8}, {5, 6}};
            for (const auto& range : ranges) {
                const std::size_t count = range.end - range.begin;
                std::vector<float> keys(count * hd);
                std::vector<float> values(count * hd);
                std::vector<float> key(hd), value(hd);
                for (std::size_t h = 0; h < heads; ++h) {
                    const units::Positions begin(range.begin);
                    const units::Positions end(range.end);
                    cache->read_keys(h, begin, end, keys.data());
                    cache->read_values(h, begin, end, values.data());
                    for (std::size_t i = 0; i < count; ++i) {
                        const units::Positions pos(range.begin + i);
                        cache->read_key(h, pos, key.data());
                        cache->read_value(h, pos, value.data());
                        const float scale = cache->key_scale(h, pos);
                        for (std::size_t d = 0; d < hd; ++d) {
                            const int code =
                                cache->key_code(h, pos, d).value();
                            const float want =
                                static_cast<float>(code) * scale;
                            EXPECT_EQ(bits(keys[i * hd + d]),
                                      bits(want))
                                << "hd " << hd << " h " << h
                                << " pos " << pos << " d " << d;
                            EXPECT_EQ(bits(key[d]), bits(want));
                            EXPECT_EQ(bits(values[i * hd + d]),
                                      bits(value[d]))
                                << "hd " << hd << " h " << h
                                << " pos " << pos << " d " << d;
                        }
                    }
                }
            }
        }
    }
}

TEST(KvCache, FloatReadsReturnTheAppendedBitsThroughSharedBlocks)
{
    // Float KV is stored verbatim: every read path returns the exact
    // appended bits, also through shared and copied-on-write blocks.
    std::mt19937 rng(827);
    const std::size_t heads = 2, hd = 7;
    BlockPool pool(units::Bytes(0), units::Tokens(4));
    KvCache donor(heads, hd, KvPrecision::kFloat, &pool);
    std::vector<support::MatrixF> ks, vs;
    for (int t = 0; t < 6; ++t) {
        ks.push_back(random_heads(heads, hd, rng));
        vs.push_back(random_heads(heads, hd, rng));
        vs.back().at(1, t) = -0.0f;
        donor.append(ks.back(), vs.back());
    }
    KvCache sharer(heads, hd, KvPrecision::kFloat, &pool);
    sharer.share_prefix_from(donor, units::Positions(6));
    for (int t = 0; t < 5; ++t) {
        ks.push_back(random_heads(heads, hd, rng));
        vs.push_back(random_heads(heads, hd, rng));
        sharer.append(ks.back(), vs.back());
    }
    ASSERT_EQ(sharer.shared_blocks(), units::Blocks(1));
    const std::size_t len = sharer.length().value();
    std::vector<float> keys(len * hd), values(len * hd);
    std::vector<float> key(hd), value(hd);
    for (std::size_t h = 0; h < heads; ++h) {
        const units::Positions end(len);
        const units::Positions begin(0);
        sharer.read_keys(h, begin, end, keys.data());
        sharer.read_values(h, begin, end, values.data());
        for (std::size_t t = 0; t < len; ++t) {
            sharer.read_key(h, units::Positions(t), key.data());
            sharer.read_value(h, units::Positions(t), value.data());
            for (std::size_t d = 0; d < hd; ++d) {
                const std::uint32_t want_k = bits(ks[t].at(h, d));
                const std::uint32_t want_v = bits(vs[t].at(h, d));
                EXPECT_EQ(bits(keys[t * hd + d]), want_k) << t;
                EXPECT_EQ(bits(key[d]), want_k) << t;
                EXPECT_EQ(bits(values[t * hd + d]), want_v) << t;
                EXPECT_EQ(bits(value[d]), want_v) << t;
            }
        }
    }
}

TEST(KvCache, MoveLeavesTheSourceDrainedAndInert)
{
    std::mt19937 rng(601);
    BlockPool pool(units::Bytes(0), units::Tokens(2));
    KvCache source(2, 8, KvPrecision::kFloat, &pool);
    for (int t = 0; t < 3; ++t) {
        const auto kv = random_heads(2, 8, rng);
        source.append(kv, kv);
    }
    const units::Bytes moved_bytes = source.memory_bytes();

    KvCache target = std::move(source);
    EXPECT_EQ(target.length(), units::Positions(3));
    EXPECT_EQ(target.memory_bytes(), moved_bytes);
    // The source is drained AND inert: no stale length, no blocks,
    // and -- the regression this pins -- no pool pointer either, so
    // a use-after-move cannot silently allocate from storage that
    // moved away with the destination.  Destroying it stays safe.
    EXPECT_EQ(source.length(), units::Positions(0));
    EXPECT_EQ(source.memory_bytes(), units::Bytes(0));
    EXPECT_EQ(source.blocks_in_use(), units::Blocks(0));
    EXPECT_EQ(pool.bytes_in_use(), moved_bytes);

    // Move assignment releases the target's old blocks first and
    // drains its source the same way.
    KvCache replacement(2, 8, KvPrecision::kFloat, &pool);
    const auto kv = random_heads(2, 8, rng);
    replacement.append(kv, kv);
    target = std::move(replacement);
    EXPECT_EQ(target.length(), units::Positions(1));
    EXPECT_EQ(pool.bytes_in_use(), target.memory_bytes());
    EXPECT_EQ(replacement.length(), units::Positions(0));
    EXPECT_EQ(replacement.memory_bytes(), units::Bytes(0));
}

TEST(KvCache, MovedFromOwnedPoolCacheOutlivesTheDestination)
{
    // The PR-3 landmine: a cache built without a shared pool owns its
    // pool; moving the cache moves the pool, and the moved-from
    // object used to keep a raw pointer into it.  Destroying the
    // destination first must leave the (nulled) source harmless.
    std::mt19937 rng(607);
    KvCache source(2, 8, KvPrecision::kInt4);  // Private owned pool.
    const auto kv = random_heads(2, 8, rng);
    source.append(kv, kv);
    {
        const KvCache target = std::move(source);
        EXPECT_EQ(target.length(), units::Positions(1));
    }  // Destination (and the owned pool) die here.
    // Source destructor runs at end of scope against no pool; under
    // the old code its pool_ would dangle into freed storage.
    EXPECT_EQ(source.length(), units::Positions(0));
    EXPECT_EQ(source.memory_bytes(), units::Bytes(0));
}

TEST(KvCacheDeathTest, AppendOnAMovedFromCacheAsserts)
{
    // The moved-from cache has no pool to append into; assert-enabled
    // builds must reject the append loudly (under NDEBUG it is
    // undefined, so the body only runs with asserts on).
    if (!support::kAssertsOn) {
        GTEST_SKIP() << "assert contract; needs asserts compiled in";
    }
    std::mt19937 rng(607);
    KvCache source(2, 8, KvPrecision::kInt4);
    const auto kv = random_heads(2, 8, rng);
    const KvCache target = std::move(source);
    EXPECT_DEATH(source.append(kv, kv), "moved-from");
}

TEST(KvCache, ReusedBlocksComeBackZeroedForTheNibbleOrPath)
{
    // The INT4 append path ORs nibbles into block bytes, so it
    // silently depends on allocate() zero-filling free-list blocks.
    // Pin the end-to-end consequence: appending through a reused
    // dirty block reads back exactly what a fresh cache stores.
    std::mt19937 rng(613);
    BlockPool pool(units::Bytes(0), units::Tokens(4));
    KvCache cache(2, 8, KvPrecision::kInt4, &pool);
    for (int t = 0; t < 6; ++t) {
        const auto kv = random_heads(2, 8, rng);
        cache.append(kv, kv);
    }
    // Freeing returns the (now thoroughly dirty) blocks to the
    // per-size free lists.
    cache.release_blocks();

    std::vector<support::MatrixF> ks;
    KvCache fresh(2, 8, KvPrecision::kInt4);  // Never-reused blocks.
    for (int t = 0; t < 6; ++t) {
        ks.push_back(random_heads(2, 8, rng));
        cache.append(ks.back(), ks.back());  // Reuses freed blocks.
        fresh.append(ks.back(), ks.back());
    }
    std::vector<float> got(8), want(8);
    for (std::size_t h = 0; h < 2; ++h) {
        for (std::size_t t = 0; t < 6; ++t) {
            cache.read_key(h, units::Positions(t), got.data());
            fresh.read_key(h, units::Positions(t), want.data());
            for (std::size_t d = 0; d < 8; ++d) {
                EXPECT_EQ(got[d], want[d]) << "h=" << h << " t=" << t;
            }
            EXPECT_EQ(cache.key_scale(h, units::Positions(t)),
                      fresh.key_scale(h, units::Positions(t)));
        }
    }
}

// ---- Prefix sharing and copy-on-write. ----

TEST(KvCache, SharedPrefixReadsAreByteIdenticalForBothPrecisions)
{
    std::mt19937 rng(701);
    for (const KvPrecision precision :
         {KvPrecision::kFloat, KvPrecision::kInt4}) {
        BlockPool pool(units::Bytes(0), units::Tokens(4));
        KvCache donor(2, 8, precision, &pool);
        std::vector<support::MatrixF> ks, vs;
        for (int t = 0; t < 10; ++t) {
            ks.push_back(random_heads(2, 8, rng));
            vs.push_back(random_heads(2, 8, rng));
            donor.append(ks[static_cast<std::size_t>(t)],
                         vs[static_cast<std::size_t>(t)]);
        }
        const units::Bytes donor_bytes = donor.memory_bytes();

        KvCache sharer(2, 8, precision, &pool);
        // Two full blocks.
        sharer.share_prefix_from(donor, units::Positions(8));
        EXPECT_EQ(sharer.length(), units::Positions(8));
        EXPECT_EQ(sharer.blocks_in_use(), units::Blocks(2));
        EXPECT_EQ(sharer.shared_blocks(), units::Blocks(2));
        EXPECT_EQ(donor.shared_blocks(), units::Blocks(2));
        // The pool accounts the shared blocks exactly once.
        EXPECT_EQ(pool.bytes_in_use(), donor_bytes);
        EXPECT_EQ(pool.shared_blocks(), units::Blocks(2));

        std::vector<float> got(8), want(8);
        for (std::size_t h = 0; h < 2; ++h) {
            for (std::size_t t = 0; t < 8; ++t) {
                donor.read_key(h, units::Positions(t), want.data());
                sharer.read_key(h, units::Positions(t), got.data());
                for (std::size_t d = 0; d < 8; ++d) {
                    EXPECT_EQ(got[d], want[d]);
                }
                donor.read_value(h, units::Positions(t), want.data());
                sharer.read_value(h, units::Positions(t), got.data());
                for (std::size_t d = 0; d < 8; ++d) {
                    EXPECT_EQ(got[d], want[d]);
                }
            }
        }
    }
}

TEST(KvCache, AppendAfterSharedPrefixNeverTouchesTheDonor)
{
    // Block-aligned sharing: the sharer's appends land in fresh
    // private blocks; the donor's reads (and its own appends) are
    // unaffected, for both precisions.
    std::mt19937 rng(703);
    for (const KvPrecision precision :
         {KvPrecision::kFloat, KvPrecision::kInt4}) {
        BlockPool pool(units::Bytes(0), units::Tokens(4));
        KvCache donor(2, 8, precision, &pool);
        std::vector<support::MatrixF> ks;
        for (int t = 0; t < 8; ++t) {
            ks.push_back(random_heads(2, 8, rng));
            donor.append(ks.back(), ks.back());
        }
        KvCache sharer(2, 8, precision, &pool);
        sharer.share_prefix_from(donor, units::Positions(8));

        // Diverge: both append different continuations.
        const auto donor_tail = random_heads(2, 8, rng);
        const auto sharer_tail = random_heads(2, 8, rng);
        donor.append(donor_tail, donor_tail);
        sharer.append(sharer_tail, sharer_tail);
        EXPECT_EQ(donor.length(), units::Positions(9));
        EXPECT_EQ(sharer.length(), units::Positions(9));

        // The shared prefix still reads identically in both...
        std::vector<float> got(8), want(8);
        for (std::size_t t = 0; t < 8; ++t) {
            donor.read_key(0, units::Positions(t), want.data());
            sharer.read_key(0, units::Positions(t), got.data());
            for (std::size_t d = 0; d < 8; ++d) {
                EXPECT_EQ(got[d], want[d]);
            }
        }
        // ...and the tails stayed private.
        donor.read_key(0, units::Positions(8), want.data());
        sharer.read_key(0, units::Positions(8), got.data());
        bool same = true;
        for (std::size_t d = 0; d < 8; ++d) {
            same &= got[d] == want[d];
        }
        EXPECT_FALSE(same) << "tails must diverge";
    }
}

TEST(KvCache, CopyOnWriteClonesAPartiallySharedBlock)
{
    // Non-block-aligned sharing shares the containing partial block;
    // the first append into it (by either cache) must clone it, and
    // the clone's unwritten region must read as zero so the INT4
    // nibble-OR path stays correct.
    std::mt19937 rng(709);
    for (const KvPrecision precision :
         {KvPrecision::kFloat, KvPrecision::kInt4}) {
        BlockPool pool(units::Bytes(0), units::Tokens(4));
        KvCache donor(2, 8, precision, &pool);
        std::vector<support::MatrixF> ks;
        for (int t = 0; t < 6; ++t) {  // Blocks: [0-3], [4-5].
            ks.push_back(random_heads(2, 8, rng));
            donor.append(ks.back(), ks.back());
        }
        KvCache sharer(2, 8, precision, &pool);
        // Includes the partial block.
        sharer.share_prefix_from(donor, units::Positions(6));
        EXPECT_EQ(pool.shared_blocks(), units::Blocks(2));
        const units::Bytes before = pool.bytes_in_use();

        // Sharer appends into the shared partial block: CoW.
        const auto sharer_tail = random_heads(2, 8, rng);
        sharer.append(sharer_tail, sharer_tail);
        EXPECT_EQ(pool.bytes_in_use(),
                  before + donor.block_bytes());
        // The tail block is unshared.
        EXPECT_EQ(pool.shared_blocks(), units::Blocks(1));

        // Donor's view of position 6's slot never changed: appending
        // its own continuation there still reads back cleanly.
        const auto donor_tail = random_heads(2, 8, rng);
        donor.append(donor_tail, donor_tail);

        std::vector<float> got(8), want(8);
        // Shared full block + the cloned prefix read identically.
        for (std::size_t t = 0; t < 6; ++t) {
            donor.read_key(1, units::Positions(t), want.data());
            sharer.read_key(1, units::Positions(t), got.data());
            for (std::size_t d = 0; d < 8; ++d) {
                EXPECT_EQ(got[d], want[d]) << "t=" << t;
            }
        }
        // Each cache's position 6 is its own append, bit-exact
        // against a fresh single-owner cache fed the same data.
        KvCache reference(2, 8, precision, &pool);
        for (int t = 0; t < 6; ++t) {
            reference.append(ks[static_cast<std::size_t>(t)],
                             ks[static_cast<std::size_t>(t)]);
        }
        reference.append(sharer_tail, sharer_tail);
        reference.read_key(0, units::Positions(6), want.data());
        sharer.read_key(0, units::Positions(6), got.data());
        for (std::size_t d = 0; d < 8; ++d) {
            EXPECT_EQ(got[d], want[d]);
        }
    }
}

TEST(KvCache, SharedBlocksFreeExactlyOnceWhenTheLastOwnerReleases)
{
    std::mt19937 rng(719);
    BlockPool pool(units::Bytes(0), units::Tokens(4));
    auto donor = std::make_unique<KvCache>(2, 8, KvPrecision::kInt4,
                                           &pool);
    std::vector<support::MatrixF> ks;
    for (int t = 0; t < 8; ++t) {
        ks.push_back(random_heads(2, 8, rng));
        donor->append(ks.back(), ks.back());
    }
    const units::Bytes shared_bytes = donor->memory_bytes();
    KvCache sharer(2, 8, KvPrecision::kInt4, &pool);
    sharer.share_prefix_from(*donor, units::Positions(8));
    EXPECT_EQ(pool.bytes_in_use(), shared_bytes);

    // Donor dies first (its request finished / was preempted): the
    // sharer's blocks survive, and its reads stay intact.
    donor.reset();
    EXPECT_EQ(pool.bytes_in_use(), shared_bytes);
    EXPECT_EQ(pool.shared_blocks(), units::Blocks(0));
    std::vector<float> got(8);
    KvCache reference(2, 8, KvPrecision::kInt4, &pool);
    for (const auto& k : ks) {
        reference.append(k, k);
    }
    std::vector<float> want(8);
    for (std::size_t t = 0; t < 8; ++t) {
        sharer.read_key(0, units::Positions(t), got.data());
        reference.read_key(0, units::Positions(t), want.data());
        for (std::size_t d = 0; d < 8; ++d) {
            EXPECT_EQ(got[d], want[d]);
        }
    }
    reference.release_blocks();
    // Only when the last owner releases does the storage return.
    sharer.release_blocks();
    EXPECT_EQ(pool.bytes_in_use(), units::Bytes(0));
    EXPECT_EQ(pool.blocks_in_use(), units::Blocks(0));
}

TEST(KvCache, ReleaseReturnsBlocksToThePool)
{
    std::mt19937 rng(401);
    BlockPool pool(units::Bytes(0), units::Tokens(4));
    KvCache outer(2, 8, KvPrecision::kInt4, &pool);
    for (int t = 0; t < 6; ++t) {
        const auto kv = random_heads(2, 8, rng);
        outer.append(kv, kv);
    }
    const units::Bytes outer_bytes = outer.memory_bytes();
    EXPECT_EQ(pool.bytes_in_use(), outer_bytes);
    {
        KvCache inner(2, 8, KvPrecision::kInt4, &pool);
        const auto kv = random_heads(2, 8, rng);
        inner.append(kv, kv);
        EXPECT_EQ(pool.bytes_in_use(),
                  outer_bytes + inner.memory_bytes());
    }  // Destructor frees the inner cache's block.
    EXPECT_EQ(pool.bytes_in_use(), outer_bytes);
    // release_blocks() is the preemption path: everything returns at
    // once and the cache restarts from length 0.
    outer.release_blocks();
    EXPECT_EQ(pool.bytes_in_use(), units::Bytes(0));
    EXPECT_EQ(outer.length(), units::Positions(0));
    EXPECT_EQ(outer.memory_bytes(), units::Bytes(0));
    const auto kv = random_heads(2, 8, rng);
    outer.append(kv, kv);
    EXPECT_EQ(outer.length(), units::Positions(1));
    EXPECT_EQ(pool.bytes_in_use(), outer.block_bytes());
}

}  // namespace
}  // namespace quant
}  // namespace mugi
