/**
 * @file
 * InlineCallback — a move-only `void()` callable with small-buffer
 * optimization, the fast-path replacement for `std::function<void()>`
 * on the simulator's hot paths (event-queue entries, invocation
 * continuations, CPU-engine completions).
 *
 * Captures up to 48 bytes are stored inline (every continuation in the
 * kernel fits: a `this` pointer, a shared_ptr or two and a timestamp);
 * larger callables fall back to a single heap allocation. Trivially
 * copyable inline captures relocate with a plain memcpy, which keeps
 * moves in and out of the event queue's slot slab cheap.
 */

#ifndef URSA_SIM_CALLBACK_H
#define URSA_SIM_CALLBACK_H

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace ursa::sim
{

/** Move-only SBO `void()` callable. */
class InlineCallback
{
  public:
    /** Inline capture capacity in bytes. */
    static constexpr std::size_t kInlineSize = 48;

    InlineCallback() noexcept = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    InlineCallback(F &&f) // NOLINT: implicit like std::function
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineSize &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            invoke_ = [](void *b) {
                (*std::launder(reinterpret_cast<Fn *>(b)))();
            };
            if constexpr (std::is_trivially_copyable_v<Fn> &&
                          std::is_trivially_destructible_v<Fn>) {
                manage_ = nullptr; // relocate via memcpy, no destroy
            } else {
                manage_ = [](void *src, void *dst) {
                    Fn *p = std::launder(reinterpret_cast<Fn *>(src));
                    if (dst)
                        ::new (dst) Fn(std::move(*p));
                    p->~Fn();
                };
            }
        } else {
            Fn *p = new Fn(std::forward<F>(f));
            std::memcpy(buf_, &p, sizeof(p));
            invoke_ = [](void *b) {
                Fn *q;
                std::memcpy(&q, b, sizeof(q));
                (*q)();
            };
            manage_ = [](void *src, void *dst) {
                Fn *q;
                std::memcpy(&q, src, sizeof(q));
                if (dst)
                    std::memcpy(dst, &q, sizeof(q));
                else
                    delete q;
            };
        }
    }

    InlineCallback(InlineCallback &&other) noexcept { moveFrom(other); }

    InlineCallback &
    operator=(InlineCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    ~InlineCallback() { reset(); }

    void
    operator()()
    {
        invoke_(buf_);
    }

    explicit operator bool() const noexcept { return invoke_ != nullptr; }

  private:
    using Invoke = void (*)(void *);
    /** manage(src, dst): relocate into `dst`, or destroy when null. */
    using Manage = void (*)(void *, void *);

    void
    moveFrom(InlineCallback &other) noexcept
    {
        invoke_ = other.invoke_;
        manage_ = other.manage_;
        if (invoke_) {
            if (!manage_)
                std::memcpy(buf_, other.buf_, kInlineSize);
            else
                manage_(other.buf_, buf_);
        }
        other.invoke_ = nullptr;
        other.manage_ = nullptr;
    }

    void
    reset() noexcept
    {
        if (invoke_ && manage_)
            manage_(buf_, nullptr);
        invoke_ = nullptr;
        manage_ = nullptr;
    }

    Invoke invoke_ = nullptr;
    Manage manage_ = nullptr;
    alignas(std::max_align_t) unsigned char buf_[kInlineSize];
};

} // namespace ursa::sim

#endif // URSA_SIM_CALLBACK_H
