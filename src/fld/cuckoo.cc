#include "fld/cuckoo.h"

#include <algorithm>

#include "util/bitops.h"
#include "util/hash.h"
#include "util/logging.h"

namespace fld::core {

CuckooTable::CuckooTable(size_t capacity, unsigned banks,
                         size_t stash_size, uint64_t seed)
    : capacity_(capacity), banks_(banks), stash_size_(stash_size),
      seed_(seed)
{
    if (capacity == 0 || banks == 0)
        fatal("CuckooTable: capacity and banks must be positive");
    // Load factor 1/2: 2x capacity slots, split across banks.
    slots_per_bank_ = std::max<size_t>(1, 2 * capacity / banks);
    table_.resize(size_t(banks_) * slots_per_bank_);
    stash_.reserve(stash_size_);
}

size_t
CuckooTable::bank_index(unsigned bank, uint64_t key) const
{
    // Per-bank hash: splitmix64 finalizer over key mixed with bank salt.
    uint64_t h = splitmix64_finalize(key + seed_ +
                                     uint64_t(bank) * 0x9e3779b97f4a7c15ull);
    return size_t(bank) * slots_per_bank_ + size_t(h % slots_per_bank_);
}

std::optional<uint32_t>
CuckooTable::lookup(uint64_t key) const
{
    for (unsigned b = 0; b < banks_; ++b) {
        const Slot& s = table_[bank_index(b, key)];
        if (s.valid && s.key == key)
            return s.value;
    }
    for (const Slot& s : stash_) {
        if (s.valid && s.key == key)
            return s.value;
    }
    return std::nullopt;
}

bool
CuckooTable::insert(uint64_t key, uint32_t value)
{
    if (lookup(key))
        fatal("CuckooTable: duplicate key insert");

    // Fast path: any empty bank slot.
    for (unsigned b = 0; b < banks_; ++b) {
        Slot& s = table_[bank_index(b, key)];
        if (!s.valid) {
            stats_.inserts++;
            s = {true, key, value};
            ++size_;
            drain_stash();
            return true;
        }
    }

    // All banks collide: evicting needs stash space; hardware stalls
    // the producer until a release drains some.
    if (stash_.size() >= stash_size_) {
        stats_.stalls++;
        return false;
    }
    stats_.inserts++;

    // Evict the bank-0 victim to the stash, place the new entry, then
    // let the stash try to re-home the victim.
    Slot& victim_slot = table_[bank_index(0, key)];
    stash_.push_back(victim_slot);
    stats_.stash_inserts++;
    stats_.stash_peak = std::max(stats_.stash_peak, stash_.size());
    victim_slot = {true, key, value};
    ++size_;
    drain_stash();
    return true;
}

void
CuckooTable::drain_stash()
{
    for (size_t i = 0; i < stash_.size();) {
        bool placed = false;
        for (unsigned b = 0; b < banks_; ++b) {
            Slot& s = table_[bank_index(b, stash_[i].key)];
            if (!s.valid) {
                s = stash_[i];
                stash_.erase(stash_.begin() + long(i));
                stats_.displacements++;
                placed = true;
                break;
            }
        }
        if (!placed)
            ++i;
    }
}

bool
CuckooTable::erase(uint64_t key)
{
    for (unsigned b = 0; b < banks_; ++b) {
        Slot& s = table_[bank_index(b, key)];
        if (s.valid && s.key == key) {
            s.valid = false;
            --size_;
            drain_stash();
            return true;
        }
    }
    for (size_t i = 0; i < stash_.size(); ++i) {
        if (stash_[i].valid && stash_[i].key == key) {
            stash_.erase(stash_.begin() + long(i));
            --size_;
            return true;
        }
    }
    return false;
}

size_t
CuckooTable::memory_bytes() const
{
    // Hardware cost per slot: ~26-bit key tag + value bits + valid,
    // packed to 4 bytes (the paper reports 15.5 KiB for 4096 slots,
    // i.e. just under 4 B per slot).
    return table_.size() * 4 + stash_size_ * 8;
}

} // namespace fld::core
