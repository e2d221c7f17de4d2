/**
 * @file
 * Vector-backed FIFO for per-connection queues.
 *
 * std::deque allocates a 512 B chunk plus its chunk map as soon as it
 * is constructed, so a deque member costs about 600 B per connection
 * even when it never holds anything. Fifo allocates nothing until its
 * first push. pop_front() only advances a head index; the storage in
 * front of the head is reclaimed when the queue drains, or, once it
 * is at least half the buffer, when the next push would otherwise
 * grow the vector. Both keep push and pop amortized O(1).
 *
 * pop_front() moves the element out and drops it, so an element's
 * own heap storage (a payload vector, say) is freed at the pop, not
 * at the next compaction.
 */
#ifndef FLD_UTIL_FIFO_H
#define FLD_UTIL_FIFO_H

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace fld {

template <typename T>
class Fifo
{
  public:
    using const_iterator = typename std::vector<T>::const_iterator;

    bool empty() const { return head_ == buf_.size(); }
    size_t size() const { return buf_.size() - head_; }

    T& front()
    {
        assert(!empty());
        return buf_[head_];
    }

    void push_back(T v)
    {
        if (head_ && buf_.size() == buf_.capacity() &&
            head_ * 2 >= buf_.size())
            compact();
        buf_.push_back(std::move(v));
    }

    void pop_front()
    {
        assert(!empty());
        [[maybe_unused]] T dropped = std::move(buf_[head_]);
        if (++head_ == buf_.size())
            clear();
    }

    /** Drop every element; keeps the buffer's capacity. */
    void clear()
    {
        buf_.clear();
        head_ = 0;
    }

    const_iterator begin() const
    {
        return buf_.begin() + ptrdiff_t(head_);
    }
    const_iterator end() const { return buf_.end(); }

  private:
    /** Slide the live elements to the front of the buffer. */
    void compact()
    {
        buf_.erase(buf_.begin(), buf_.begin() + ptrdiff_t(head_));
        head_ = 0;
    }

    std::vector<T> buf_;
    size_t head_ = 0; ///< index of front() in buf_
};

} // namespace fld

#endif // FLD_UTIL_FIFO_H
