/**
 * @file
 * Fundamental simulator-wide types and constants.
 *
 * The simulator models a 64-core shared memory manycore with a hybrid
 * memory system (per-core scratchpad memories alongside the cache
 * hierarchy), following Alvarez et al., ISCA 2015.
 */

#ifndef SPMCOH_SIM_TYPES_HH
#define SPMCOH_SIM_TYPES_HH

#include <bit>
#include <cstdint>
#include <cstddef>
#include <limits>

namespace spmcoh
{

/** Simulated time, measured in core clock cycles (2 GHz). */
using Tick = std::uint64_t;

/** A 64-bit virtual or physical address. */
using Addr = std::uint64_t;

/** Core / tile identifier, 0..numCores-1. */
using CoreId = std::uint32_t;

/** Sentinel for "no core". */
constexpr CoreId invalidCore = std::numeric_limits<CoreId>::max();

/** Sentinel tick. */
constexpr Tick maxTick = std::numeric_limits<Tick>::max();

/** Cache line size in bytes (Table 1: 64B line size). */
constexpr std::uint32_t lineBytes = 64;

/** log2(lineBytes). */
constexpr std::uint32_t lineShift = 6;

/** Align an address down to its line base. */
constexpr Addr
lineAlign(Addr a)
{
    return a & ~static_cast<Addr>(lineBytes - 1);
}

/** Byte offset of an address within its line. */
constexpr std::uint32_t
lineOffset(Addr a)
{
    return static_cast<std::uint32_t>(a & (lineBytes - 1));
}

/** True if x is a power of two (and non-zero). */
constexpr bool
isPow2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** Integer log2 for powers of two. */
constexpr std::uint32_t
log2i(std::uint64_t x)
{
    std::uint32_t r = 0;
    while (x > 1) { x >>= 1; ++r; }
    return r;
}

/** Integer ceil-division. */
constexpr std::uint64_t
divCeil(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/**
 * Home slice for @p key over @p slices equal slices (directory and
 * FilterDir interleaving). Power-of-two slice counts select bits
 * with a mask, as the hardware address decomposition does; other
 * counts fall back to a modulo.
 */
constexpr CoreId
interleaveSlice(std::uint64_t key, std::uint32_t slices)
{
    return static_cast<CoreId>(
        isPow2(slices) ? key & (slices - 1) : key % slices);
}

/**
 * Bit of core @p c in a 64-bit sharer mask. Every sharer mask
 * (directory and FilterDir slices) goes through this and
 * forEachCore, so a wider sharer set changes only these two.
 */
constexpr std::uint64_t
coreBit(CoreId c)
{
    return std::uint64_t(1) << c;
}

/** Call @p f(c) for every core set in @p mask, lowest id first. */
template <typename F>
constexpr void
forEachCore(std::uint64_t mask, F &&f)
{
    for (; mask != 0; mask &= mask - 1)
        f(static_cast<CoreId>(std::countr_zero(mask)));
}

} // namespace spmcoh

#endif // SPMCOH_SIM_TYPES_HH
