/**
 * @file
 * Small hashing helpers shared across the project.
 *
 * The canonicalizer, the hash-consed gate layer and the structural
 * hashes of relational nodes (the cache keys) all need stable,
 * well-mixed 64-bit hashes; we use a splitmix64-style mixer combined in
 * a boost-like fold so hashes are reproducible across runs and platforms.
 */

#ifndef LTS_COMMON_HASH_HH
#define LTS_COMMON_HASH_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace lts
{

/** Seed value for an incremental hash chain. */
inline uint64_t
hashInit()
{
    return 0x9e3779b97f4a7c15ULL;
}

/** splitmix64 finalizer: a cheap, high-quality 64-bit mixer. */
inline uint64_t
hashMix(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/** Fold @p value into the running hash @p h. */
inline uint64_t
hashCombine(uint64_t h, uint64_t value)
{
    return hashMix(h ^ (value + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

/** Hash a string view into the running hash @p h. */
inline uint64_t
hashCombine(uint64_t h, std::string_view s)
{
    for (char c : s)
        h = hashCombine(h, static_cast<uint64_t>(static_cast<uint8_t>(c)));
    return hashCombine(h, s.size());
}

} // namespace lts

#endif // LTS_COMMON_HASH_HH
