/**
 * @file
 * A size-bucketed freelist arena plus the intrusive reference-counted
 * smart pointer (`RefPtr` / `makeRef`) that manages Request and
 * Invocation — the two allocations made per submit/invoke on the
 * kernel's hot path. After warm-up the path is malloc-free, and unlike
 * the `std::allocate_shared` scheme this replaced there is no control
 * block and no atomic refcount traffic: the count is a plain uint32
 * embedded in the object (`RefState`), legal because each Cluster's
 * event loop is single-threaded and pooled objects never leave their
 * Cluster.
 *
 * Ownership contract (checked at URSA_CHECK_LEVEL >= 1 in ~PoolArena):
 * RefPtr-managed objects must not outlive the Cluster whose arena they
 * came from. Tests that hold a RequestPtr across a run keep the
 * Cluster alive, which every existing caller already does.
 */

#ifndef URSA_SIM_POOL_H
#define URSA_SIM_POOL_H

#include "base/thread_annotations.h"
#include "check/check.h"

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

namespace ursa::sim
{

/**
 * Freelist arena with 64-byte size classes up to 512 bytes.
 *
 * With URSA_CHECK_LEVEL >= 1 every pooled block carries a hidden
 * header holding a generation counter and a live/free state bit.
 * Releasing a block that is already free fires a "sim.pool" violation
 * (and the block is NOT re-inserted, so the freelist cannot hand the
 * same address out twice); the generation bumps on every allocate and
 * release, so stale-pointer reuse across a recycle is detectable.
 */
class URSA_SINGLE_THREADED PoolArena
{
  public:
    PoolArena() = default;
    PoolArena(const PoolArena &) = delete;
    PoolArena &operator=(const PoolArena &) = delete;

    ~PoolArena()
    {
#if URSA_CHECK_LEVEL >= 1
        URSA_CHECK(liveRefObjects_ == 0, "sim.pool",
                   "RefPtr-managed objects outlive their arena");
#endif
        for (auto &bucket : free_)
            for (void *p : bucket)
                ::operator delete(p);
    }

#if URSA_CHECK_LEVEL >= 1
    /// RefPtr-managed objects currently alive (makeRef bookkeeping).
    void
    noteRefAlloc() noexcept
    {
        ++liveRefObjects_;
    }

    void
    noteRefFree() noexcept
    {
        --liveRefObjects_;
    }
#endif

#if URSA_CHECK_LEVEL >= 1

    void *
    allocate(std::size_t bytes)
    {
        if (bytes == 0 || bytes > kMaxBlock)
            return ::operator new(bytes);
        auto &bucket = free_[classOf(bytes)];
        Header *h;
        if (!bucket.empty()) {
            h = static_cast<Header *>(bucket.back());
            bucket.pop_back();
            URSA_CHECK(h->live == 0, "sim.pool",
                       "freelist handed out a block still marked live");
        } else {
            h = static_cast<Header *>(::operator new(
                kHeaderSize + (classOf(bytes) + 1) * kGranularity));
            h->generation = 0;
        }
        h->live = 1;
        ++h->generation;
        return static_cast<char *>(static_cast<void *>(h)) + kHeaderSize;
    }

    void
    deallocate(void *p, std::size_t bytes) noexcept
    {
        if (bytes == 0 || bytes > kMaxBlock) {
            ::operator delete(p);
            return;
        }
        Header *h = headerOf(p);
        URSA_CHECK(h->live == 1, "sim.pool",
                   "double release of a pooled block");
        if (h->live != 1)
            return; // keep the freelist sound after a trapped violation
        h->live = 0;
        ++h->generation;
        free_[classOf(bytes)].push_back(h);
    }

    /**
     * Generation tag of a pooled block (bumps on every allocate and
     * release). Exposed for the pool's own tests.
     */
    static std::uint32_t
    generationOf(const void *p)
    {
        return headerOf(const_cast<void *>(p))->generation;
    }

#else // URSA_CHECK_LEVEL == 0: zero-overhead layout, no headers

    void *
    allocate(std::size_t bytes)
    {
        if (bytes == 0 || bytes > kMaxBlock)
            return ::operator new(bytes);
        auto &bucket = free_[classOf(bytes)];
        if (!bucket.empty()) {
            void *p = bucket.back();
            bucket.pop_back();
            return p;
        }
        return ::operator new((classOf(bytes) + 1) * kGranularity);
    }

    void
    deallocate(void *p, std::size_t bytes) noexcept
    {
        if (bytes == 0 || bytes > kMaxBlock) {
            ::operator delete(p);
            return;
        }
        free_[classOf(bytes)].push_back(p);
    }

#endif // URSA_CHECK_LEVEL

  private:
    static constexpr std::size_t kGranularity = 64;
    static constexpr std::size_t kMaxBlock = 512;

#if URSA_CHECK_LEVEL >= 1
    struct Header
    {
        std::uint32_t generation;
        std::uint32_t live;
    };
    /// Header stride preserving max_align for the user block.
    static constexpr std::size_t kHeaderSize =
        alignof(std::max_align_t) > sizeof(Header)
            ? alignof(std::max_align_t)
            : sizeof(Header);

    static Header *
    headerOf(void *userPtr)
    {
        return static_cast<Header *>(static_cast<void *>(
            static_cast<char *>(userPtr) - kHeaderSize));
    }
#endif

    static std::size_t
    classOf(std::size_t bytes)
    {
        return (bytes - 1) / kGranularity;
    }

    std::vector<void *> free_[kMaxBlock / kGranularity];

#if URSA_CHECK_LEVEL >= 1
    std::int64_t liveRefObjects_ = 0;
#endif
};

/**
 * Intrusive refcount state embedded in every RefPtr-managed object as
 * a public member named `poolRef`. Non-atomic by design: see the file
 * comment for the single-threaded ownership contract.
 */
struct RefState
{
    std::uint32_t refs = 0;
    PoolArena *arena = nullptr;
};

/**
 * Intrusive, non-atomic, pool-backed shared pointer.
 *
 * 8 bytes (a shared_ptr is 16), copy is a plain increment (no
 * lock-prefixed RMW), and destruction returns the block straight to
 * the owning arena's freelist. Requires `T` to expose a `RefState
 * poolRef` member; create instances with `makeRef<T>(arena, ...)`.
 */
template <typename T>
class RefPtr
{
  public:
    RefPtr() = default;
    RefPtr(std::nullptr_t) {}

    /** Adopt an object whose refcount already accounts for this ref. */
    static RefPtr
    adopt(T *obj)
    {
        RefPtr p;
        p.ptr_ = obj;
        return p;
    }

    RefPtr(const RefPtr &other) : ptr_(other.ptr_)
    {
        if (ptr_ != nullptr)
            ++ptr_->poolRef.refs;
    }

    RefPtr(RefPtr &&other) noexcept : ptr_(other.ptr_)
    {
        other.ptr_ = nullptr;
    }

    RefPtr &
    operator=(const RefPtr &other)
    {
        RefPtr tmp(other);
        std::swap(ptr_, tmp.ptr_);
        return *this;
    }

    RefPtr &
    operator=(RefPtr &&other) noexcept
    {
        std::swap(ptr_, other.ptr_);
        return *this;
    }

    ~RefPtr() { release(); }

    void
    reset()
    {
        release();
        ptr_ = nullptr;
    }

    T *
    get() const
    {
        return ptr_;
    }

    T &
    operator*() const
    {
        return *ptr_;
    }

    T *
    operator->() const
    {
        return ptr_;
    }

    explicit operator bool() const { return ptr_ != nullptr; }

    bool
    operator==(const RefPtr &other) const
    {
        return ptr_ == other.ptr_;
    }

    bool
    operator!=(const RefPtr &other) const
    {
        return ptr_ != other.ptr_;
    }

  private:
    void
    release() noexcept
    {
        if (ptr_ == nullptr)
            return;
        if (--ptr_->poolRef.refs == 0) {
            PoolArena *arena = ptr_->poolRef.arena;
#if URSA_CHECK_LEVEL >= 1
            arena->noteRefFree();
#endif
            ptr_->~T();
            arena->deallocate(ptr_, sizeof(T));
        }
    }

    T *ptr_ = nullptr;
};

/**
 * Construct a pool-backed, RefPtr-managed `T`. The object is placement
 * -new'd into an arena block; its embedded `poolRef` is initialized to
 * one reference owned by the returned pointer.
 */
template <typename T, typename... Args>
RefPtr<T>
makeRef(PoolArena &arena, Args &&...args)
{
    void *mem = arena.allocate(sizeof(T));
    T *obj = new (mem) T(static_cast<Args &&>(args)...);
    obj->poolRef.refs = 1;
    obj->poolRef.arena = &arena;
#if URSA_CHECK_LEVEL >= 1
    arena.noteRefAlloc();
#endif
    return RefPtr<T>::adopt(obj);
}

} // namespace ursa::sim

#endif // URSA_SIM_POOL_H
