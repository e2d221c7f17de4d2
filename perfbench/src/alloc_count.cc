#include "alloc_count.h"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

// Relaxed atomics would cost a locked instruction per allocation; the
// harness runs every workload on one thread, so plain counters suffice.
constinit uint64_t g_calls = 0;
constinit uint64_t g_bytes = 0;

void*
counted_alloc(std::size_t n, std::size_t align, bool nothrow)
{
    ++g_calls;
    g_bytes += n;
    if (n == 0)
        n = 1;
    void* p = nullptr;
    if (align <= alignof(std::max_align_t)) {
        p = std::malloc(n);
    } else {
        std::size_t rounded = (n + align - 1) / align * align;
        p = std::aligned_alloc(align, rounded);
    }
    if (!p && !nothrow)
        throw std::bad_alloc();
    return p;
}

} // namespace

namespace perfbench {

AllocCount
alloc_count()
{
    return {g_calls, g_bytes};
}

} // namespace perfbench

void* operator new(std::size_t n) { return counted_alloc(n, 0, false); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0, false); }
void*
operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    return counted_alloc(n, 0, true);
}
void*
operator new[](std::size_t n, const std::nothrow_t&) noexcept
{
    return counted_alloc(n, 0, true);
}
void*
operator new(std::size_t n, std::align_val_t a)
{
    return counted_alloc(n, std::size_t(a), false);
}
void*
operator new[](std::size_t n, std::align_val_t a)
{
    return counted_alloc(n, std::size_t(a), false);
}
void*
operator new(std::size_t n, std::align_val_t a,
             const std::nothrow_t&) noexcept
{
    return counted_alloc(n, std::size_t(a), true);
}
void*
operator new[](std::size_t n, std::align_val_t a,
               const std::nothrow_t&) noexcept
{
    return counted_alloc(n, std::size_t(a), true);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}
void
operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, std::align_val_t,
                  const std::nothrow_t&) noexcept
{
    std::free(p);
}
