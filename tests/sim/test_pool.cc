/**
 * @file
 * Freelist-arena coverage: size-class bucketing, block reuse,
 * generation-tag behavior across the allocate/release cycle, and the
 * check layer's double-release detection (violation-injection: the
 * audit must fire with the "sim.pool" component tag and keep the
 * freelist sound afterwards).
 */

#include "sim/pool.h"

#include "check/check.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace
{

using namespace ursa;
using namespace ursa::sim;

TEST(PoolArena, ReusesFreedBlockOfSameClass)
{
    PoolArena arena;
    void *a = arena.allocate(96);
    arena.deallocate(a, 96);
    // 96 and 128 share the 64..128 size class; the freed block must
    // come straight back.
    void *b = arena.allocate(128);
    EXPECT_EQ(a, b);
    arena.deallocate(b, 128);
}

TEST(PoolArena, DistinctClassesDoNotShareBlocks)
{
    PoolArena arena;
    void *small = arena.allocate(64);
    arena.deallocate(small, 64);
    void *large = arena.allocate(256);
    EXPECT_NE(small, large);
    arena.deallocate(large, 256);
}

TEST(PoolArena, OversizeAndZeroBypassTheFreelist)
{
    PoolArena arena;
    // > 512 bytes falls through to plain operator new/delete; no
    // crash, no pooling.
    void *big = arena.allocate(4096);
    ASSERT_NE(big, nullptr);
    arena.deallocate(big, 4096);
    void *zero = arena.allocate(0);
    ASSERT_NE(zero, nullptr);
    arena.deallocate(zero, 0);
}

TEST(PoolArena, ManyBlocksCycleWithoutAliasing)
{
    PoolArena arena;
    std::vector<void *> blocks;
    for (int i = 0; i < 64; ++i)
        blocks.push_back(arena.allocate(192));
    std::set<void *> unique(blocks.begin(), blocks.end());
    EXPECT_EQ(unique.size(), blocks.size());
    for (void *p : blocks)
        arena.deallocate(p, 192);
    // Recycle: every block must come back exactly once.
    std::set<void *> recycled;
    for (int i = 0; i < 64; ++i)
        recycled.insert(arena.allocate(192));
    EXPECT_EQ(recycled, unique);
    for (void *p : recycled)
        arena.deallocate(p, 192);
}

#if URSA_CHECK_LEVEL >= 1

TEST(PoolArenaChecked, GenerationBumpsOnReleaseAndReuse)
{
    PoolArena arena;
    void *p = arena.allocate(64);
    const std::uint32_t born = PoolArena::generationOf(p);
    arena.deallocate(p, 64);
    void *q = arena.allocate(64);
    ASSERT_EQ(p, q); // same block recycled
    // One bump for the release, one for the re-allocation: a stale
    // holder of `p` can tell its block was recycled underneath it.
    EXPECT_EQ(PoolArena::generationOf(q), born + 2);
    arena.deallocate(q, 64);
}

TEST(PoolArenaChecked, DoubleReleaseFiresSimPoolViolation)
{
    PoolArena arena;
    void *p = arena.allocate(64);
    arena.deallocate(p, 64);

    check::ScopedCapture trap;
    arena.deallocate(p, 64); // double release
    ASSERT_EQ(trap.violations().size(), 1u);
    EXPECT_TRUE(trap.sawComponent("sim.pool"));
    EXPECT_STREQ(trap.violations()[0].message,
                 "double release of a pooled block");

    // The freelist must stay sound: the block exists once, so two
    // subsequent allocations must not alias.
    void *a = arena.allocate(64);
    void *b = arena.allocate(64);
    EXPECT_NE(a, b);
    arena.deallocate(a, 64);
    arena.deallocate(b, 64);
}

#endif // URSA_CHECK_LEVEL >= 1

} // namespace
