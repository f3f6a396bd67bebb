// Page-shared copy-on-write array: the storage behind the server's
// per-cycle snapshots (the committed values, the sparse matrix's column
// table and the dense matrix's columns; DESIGN.md §4g "Paged copy-on-write
// state").
//
// The n entries live in pages of one length, fixed at construction, behind
// a table of raw pointers. No page carries a reference count: copying the
// container memcpys the table and registers the copy with a ledger shared
// by every container descended from the same original, so a cycle snapshot
// costs one synchronised operation plus an O(number of pages) memcpy, and
// dropping it only unregisters it. The live container copies a page on its
// first write after a copy and retires the page it replaced.
//
// Copy-on-write is decided by a generation rule, never by who else holds a
// page: each page records the generation in which its container created it,
// and copying a container bumps the generation of both sides. A write copies
// the page unless its generation is the container's current one, so a page
// any other container can see is never written, and the number of pages
// copied is a deterministic function of the write sequence. The generation
// lives in the page, so a copy moves the page pointers only.
//
// Ownership and reclamation. Each page is owned by the container that
// created it; the pages a copy starts with are borrowed. The ledger keeps a
// clock and the pins of the live copies: a copy of the original takes a new
// pin from the clock, a copy of a copy shares its source's pin. A page the
// owner replaces is retired with generation clock + 1, and the owner frees
// or reuses it on its own thread, on a later write, once every live pin is
// at least that generation (the low watermark): no copy that could see the
// page is left. So after each write the retired backlog is at most the
// pages this container replaced since the oldest live copy was taken, and
// the reuse list holds at most kMaxFreePages pages. A copy that is itself
// written owns the pages it creates; its pin keeps the original's pages it
// borrowed alive until it and its own copies are gone. A dying owner whose
// pages a copy may still see hands them to the ledger; the next copy of the
// original frees those no live pin can see, and the last member of the
// ledger frees the rest.
//
// A fresh container of the default page length shares one static zero page
// across all its slots, so construction is O(n / kPageEntries). A container
// built with FixedPages (any page length, e.g. one matrix column per page)
// allocates and owns all its pages up front instead, so its writes copy
// nothing until its first copy. A single-page table is held inline and a
// one-page container owns its zero page, so a container of at most
// kPageEntries entries allocates one page at construction, one ledger at its
// first copy, and in steady state reuses its retired page. Larger copies
// take the page table a dropped copy handed back to the ledger.
//
// Thread safety: one writer per container. Copying a container only reads
// its table (and bumps an atomic generation), so any number of threads may
// copy one that nobody writes. Dropping a copy frees no page unless it is
// the last member of its ledger.

#ifndef BCC_COMMON_COW_PAGES_H_
#define BCC_COMMON_COW_PAGES_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace bcc {

template <typename T>
class CowPages {
 public:
  /// Default entries per page, chosen per element type by a sweep at the
  /// uplink write rate (DESIGN.md §4g). Copying a page of trivially copyable
  /// entries is a memcpy, so those pages are large and the table small;
  /// copying a page of handles bumps one reference count per entry, so
  /// those pages are small.
  static constexpr uint32_t kPageShift = std::is_trivially_copyable_v<T> ? 5 : 3;
  static constexpr uint32_t kPageEntries = 1u << kPageShift;
  static constexpr size_t kPageBytes = kPageEntries * sizeof(T);
  /// Reclaimed pages kept for reuse by later page copies; the rest are freed.
  static constexpr uint32_t kMaxFreePages = 256;

  CowPages() = default;

  /// n value-initialized entries in pages of kPageEntries, every page
  /// sharing the zero page.
  explicit CowPages(uint32_t n) : n_(n), num_pages_((n + kPageEntries - 1) >> kPageShift) {
    if (n_ == 0) return;
    AllocateTable();
    if (num_pages_ == 1) {
      // A one-page container owns its zero page: its writes never copy.
      inline_page_ = NewPage(page_entries_, first_gen_);
      return;
    }
    // Generation 0 is below every live generation, so each slot copies the
    // zero page on its first write.
    std::fill_n(pages_, num_pages_, ZeroPage());
  }

  /// `num_pages` pages of `page_entries` value-initialized entries each, all
  /// allocated and owned from the start (the dense F-Matrix: one column per
  /// page). The per-entry accessors need a power-of-two page length; the
  /// page accessors take any.
  static CowPages FixedPages(uint32_t num_pages, uint32_t page_entries) {
    assert(num_pages == 0 ||
           page_entries <= std::numeric_limits<uint32_t>::max() / num_pages);
    CowPages pages;
    if (num_pages == 0 || page_entries == 0) return pages;
    pages.n_ = num_pages * page_entries;
    pages.num_pages_ = num_pages;
    pages.page_entries_ = page_entries;
    pages.page_shift_ = static_cast<uint32_t>(std::countr_zero(page_entries));
    pages.AllocateTable();
    for (uint32_t p = 0; p < num_pages; ++p) {
      pages.pages_[p] = NewPage(page_entries, pages.first_gen_);
    }
    return pages;
  }

  /// Shares every page of `other`; both sides copy a page before writing it.
  CowPages(const CowPages& other) { ShareFrom(other); }
  CowPages& operator=(const CowPages& other) {
    if (this != &other) {
      Release();
      ShareFrom(other);
    }
    return *this;
  }
  CowPages(CowPages&& other) noexcept { TakeFrom(other); }
  CowPages& operator=(CowPages&& other) noexcept {
    if (this != &other) {
      Release();
      TakeFrom(other);
    }
    return *this;
  }
  ~CowPages() { Release(); }

  uint32_t size() const { return n_; }
  const T& operator[](uint32_t i) const {
    assert(i < n_ && page_entries_ == 1u << page_shift_);
    return Entries(pages_[i >> page_shift_])[i & (page_entries_ - 1)];
  }

  /// Entry i for writing: copies its page first unless this container
  /// created it since its last copy.
  T& Mutable(uint32_t i) {
    assert(i < n_ && page_entries_ == 1u << page_shift_);
    const uint32_t p = i >> page_shift_;
    MakeWritable(p);
    return Entries(pages_[p])[i & (page_entries_ - 1)];
  }
  void Set(uint32_t i, const T& value) { Mutable(i) = value; }

  uint32_t num_pages() const { return num_pages_; }
  /// Page p's entries (the last page may be short).
  std::span<const T> Page(uint32_t p) const {
    assert(p < num_pages_);
    return {Entries(pages_[p]), PageLength(p)};
  }
  /// Page p's entries for writing, copied first like Mutable's.
  std::span<T> MutablePage(uint32_t p) {
    assert(p < num_pages_);
    MakeWritable(p);
    return {Entries(pages_[p]), PageLength(p)};
  }
  /// Whether page p is the same buffer in both containers (tests, equality).
  bool SharesPage(const CowPages& other, uint32_t p) const {
    return pages_[p] == other.pages_[p];
  }

  /// Pages this container has copied on write since it was built or copied
  /// into (cumulative; its own zero-page copies included).
  uint64_t pages_copied() const { return pages_copied_; }
  /// Bytes one page copy moves.
  size_t page_bytes() const { return page_entries_ * sizeof(T); }
  /// Bytes one copy of the container moves: the page table.
  size_t table_bytes() const { return num_pages_ * sizeof(PageBuffer*); }
  /// Pages this container replaced that a live copy may still see; after a
  /// write, at most the pages it replaced since the oldest live copy was
  /// taken.
  size_t retired_pages() const { return retired_.size() - retired_head_; }

  /// Entry-wise equality; shared pages compare by identity.
  friend bool operator==(const CowPages& a, const CowPages& b) {
    if (a.n_ != b.n_ || a.num_pages_ != b.num_pages_) return false;
    for (uint32_t p = 0; p < a.num_pages_; ++p) {
      if (a.SharesPage(b, p)) continue;
      const std::span<const T> pa = a.Page(p);
      if (!std::equal(pa.begin(), pa.end(), b.Page(p).begin())) return false;
    }
    return true;
  }

 private:
  /// A page's header; its entries follow it in the same allocation.
  struct alignas(alignof(T) > alignof(uint64_t) ? alignof(T) : alignof(uint64_t)) PageBuffer {
    /// Generation in which its container created it; never changes once
    /// another container can see the page.
    uint64_t gen = 0;
  };
  static_assert(alignof(PageBuffer) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  /// A replaced page and the generation from which no new copy can see it.
  struct Retired {
    PageBuffer* page;
    uint64_t hidden_from;
  };

  static constexpr uint64_t kNoPin = std::numeric_limits<uint64_t>::max();
  /// Dropped members' page tables a ledger keeps for the next copies.
  static constexpr size_t kSpareTables = 2;

  /// Shared by the original container and every copy descended from it.
  struct Ledger {
    std::mutex mu;
    uint32_t members = 0;  ///< containers attached (the original and copies)
    std::atomic<uint64_t> clock{0};  ///< last pin handed out
    /// Smallest live pin (kNoPin if none); written under mu, read by owners.
    std::atomic<uint64_t> low_watermark{kNoPin};
    /// (pin, live copies holding it), ascending, counts > 0.
    std::vector<std::pair<uint64_t, uint32_t>> pins;
    /// Pages of dead owners that a live copy may still see.
    std::vector<Retired> orphans;
    /// Page tables of dropped members, handed to the next copies (every
    /// member of a family has the same number of pages).
    std::vector<std::unique_ptr<PageBuffer*[]>> spare_tables;

    void PublishWatermark() {
      low_watermark.store(pins.empty() ? kNoPin : pins.front().first, std::memory_order_release);
    }
    auto FindPin(uint64_t pin) {
      const auto it = std::lower_bound(pins.begin(), pins.end(), pin,
                                       [](const auto& e, uint64_t p) { return e.first < p; });
      assert(it != pins.end() && it->first == pin);
      return it;
    }
  };

  static T* Entries(PageBuffer* page) {
    return reinterpret_cast<T*>(reinterpret_cast<std::byte*>(page) + sizeof(PageBuffer));
  }
  static const T* Entries(const PageBuffer* page) {
    return reinterpret_cast<const T*>(reinterpret_cast<const std::byte*>(page) +
                                      sizeof(PageBuffer));
  }

  /// A page of `entries` value-initialized entries, created in `gen`.
  static PageBuffer* NewPage(uint32_t entries, uint64_t gen) {
    void* raw = ::operator new(sizeof(PageBuffer) + size_t{entries} * sizeof(T));
    auto* page = new (raw) PageBuffer{gen};
    std::uninitialized_value_construct_n(Entries(page), entries);
    return page;
  }
  static void DeletePage(PageBuffer* page, uint32_t entries) {
    std::destroy_n(Entries(page), entries);
    page->~PageBuffer();
    ::operator delete(page);
  }
  void DeletePage(PageBuffer* page) const { DeletePage(page, page_entries_); }

  /// Shared by every slot of a fresh multi-page container of the default
  /// page length; never written or freed.
  static PageBuffer* ZeroPage() {
    static PageBuffer* const zero = NewPage(kPageEntries, 0);
    return zero;
  }

  uint32_t PageLength(uint32_t p) const {
    return std::min(page_entries_, n_ - p * page_entries_);
  }

  void AllocateTable() {
    if (num_pages_ == 1) {
      pages_ = &inline_page_;
    } else {
      if (heap_pages_ == nullptr) {
        heap_pages_ = std::make_unique_for_overwrite<PageBuffer*[]>(num_pages_);
      }
      pages_ = heap_pages_.get();
    }
  }

  void MakeWritable(uint32_t p) {
    if (pages_[p]->gen != gen_.load(std::memory_order_relaxed)) CopyPage(p);
  }

  /// The ledger of this container's family, created by its first copy.
  Ledger* AttachLedger() const {
    Ledger* ledger = ledger_.load(std::memory_order_acquire);
    if (ledger != nullptr) return ledger;
    auto fresh = std::make_unique<Ledger>();
    fresh->members = 1;  // this container
    fresh->pins.reserve(8);
    fresh->spare_tables.reserve(kSpareTables);
    if (ledger_.compare_exchange_strong(ledger, fresh.get(), std::memory_order_acq_rel)) {
      return fresh.release();
    }
    return ledger;  // another thread's first copy won
  }

  void ShareFrom(const CowPages& other) {
    n_ = other.n_;
    num_pages_ = other.num_pages_;
    page_entries_ = other.page_entries_;
    page_shift_ = other.page_shift_;
    if (num_pages_ == 0) return;
    Ledger* ledger = other.AttachLedger();
    const uint64_t gen = other.gen_.fetch_add(1, std::memory_order_relaxed) + 1;
    {
      const std::lock_guard<std::mutex> lock(ledger->mu);
      ++ledger->members;
      if (other.pin_ == 0) {
        pin_ = ledger->clock.load(std::memory_order_relaxed) + 1;
        ledger->clock.store(pin_, std::memory_order_relaxed);
        ledger->pins.emplace_back(pin_, 1);
      } else {
        pin_ = other.pin_;
        ++ledger->FindPin(pin_)->second;
      }
      ledger->PublishWatermark();
      if (other.pin_ == 0 && !ledger->orphans.empty()) {
        FreeUnpinnedOrphans(*ledger, page_entries_);
      }
      if (num_pages_ > 1 && !ledger->spare_tables.empty()) {
        heap_pages_ = std::move(ledger->spare_tables.back());
        ledger->spare_tables.pop_back();
      }
    }
    ledger_.store(ledger, std::memory_order_relaxed);
    AllocateTable();
    std::memcpy(static_cast<void*>(pages_), other.pages_, table_bytes());
    gen_.store(gen, std::memory_order_relaxed);
    first_gen_ = gen;
    pages_copied_ = 0;
  }

  void TakeFrom(CowPages& other) {
    n_ = std::exchange(other.n_, 0);
    num_pages_ = std::exchange(other.num_pages_, 0);
    page_entries_ = other.page_entries_;
    page_shift_ = other.page_shift_;
    heap_pages_ = std::move(other.heap_pages_);
    inline_page_ = other.inline_page_;
    pages_ = num_pages_ == 0 ? nullptr : num_pages_ == 1 ? &inline_page_ : heap_pages_.get();
    other.pages_ = nullptr;
    gen_.store(other.gen_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    first_gen_ = other.first_gen_;
    pin_ = std::exchange(other.pin_, 0);
    ledger_.store(other.ledger_.exchange(nullptr, std::memory_order_relaxed),
                  std::memory_order_relaxed);
    pages_copied_ = std::exchange(other.pages_copied_, 0);
    retired_ = std::move(other.retired_);
    retired_head_ = std::exchange(other.retired_head_, 0);
    free_ = std::move(other.free_);
    other.retired_.clear();
    other.free_.clear();
  }

  void CopyPage(uint32_t p) {
    PageBuffer* old = pages_[p];
    PageBuffer* fresh = TakeFreePage();
    if (fresh == nullptr) fresh = NewPage(page_entries_, 0);
    std::copy_n(Entries(old), page_entries_, Entries(fresh));
    fresh->gen = gen_.load(std::memory_order_relaxed);
    if (old->gen >= first_gen_) Retire(old);
    pages_[p] = fresh;
    ++pages_copied_;
  }

  uint64_t LowWatermark() const {
    return ledger_.load(std::memory_order_relaxed)->low_watermark.load(std::memory_order_acquire);
  }

  /// Retires an owned page this container no longer holds. Only copies
  /// taken while it was in the table can see it, and the next pin handed
  /// out is past them all.
  void Retire(PageBuffer* page) {
    const Ledger* ledger = ledger_.load(std::memory_order_relaxed);
    assert(ledger != nullptr);
    const uint64_t hidden_from = ledger->clock.load(std::memory_order_relaxed) + 1;
    if (hidden_from <= LowWatermark()) {
      Recycle(page);
    } else {
      retired_.push_back(Retired{page, hidden_from});
    }
  }

  void Recycle(PageBuffer* page) {
    if (free_.size() < kMaxFreePages) {
      // Let go of stale handles now rather than when the page is reused.
      if constexpr (!std::is_trivially_destructible_v<T>) {
        std::fill_n(Entries(page), page_entries_, T{});
      }
      free_.push_back(page);
    } else {
      DeletePage(page);
    }
  }

  /// Recycles every retired page no live copy can see, then hands out a
  /// recycled page (nullptr if none).
  PageBuffer* TakeFreePage() {
    if (retired_head_ < retired_.size()) {
      const uint64_t watermark = LowWatermark();
      while (retired_head_ < retired_.size() &&
             retired_[retired_head_].hidden_from <= watermark) {
        Recycle(retired_[retired_head_++].page);
      }
      if (retired_head_ == retired_.size()) {
        retired_.clear();
        retired_head_ = 0;
      } else if (retired_head_ * 2 > retired_.size()) {
        retired_.erase(retired_.begin(), retired_.begin() + static_cast<ptrdiff_t>(retired_head_));
        retired_head_ = 0;
      }
    }
    if (free_.empty()) return nullptr;
    PageBuffer* page = free_.back();
    free_.pop_back();
    return page;
  }

  /// Frees the orphans no live pin can see (under the ledger's lock).
  static void FreeUnpinnedOrphans(Ledger& ledger, uint32_t page_entries) {
    const uint64_t watermark = ledger.low_watermark.load(std::memory_order_relaxed);
    std::erase_if(ledger.orphans, [&](const Retired& r) {
      if (r.hidden_from > watermark) return false;
      DeletePage(r.page, page_entries);
      return true;
    });
  }

  /// Detaches from the ledger and frees what no other container can see;
  /// leaves the container empty.
  void Release() {
    for (PageBuffer* page : free_) DeletePage(page);
    free_.clear();
    if (num_pages_ > 0) {
      // Never copied since it began: no other container saw its own pages.
      const bool shared_out = gen_.load(std::memory_order_relaxed) != first_gen_;
      if (!shared_out) ForEachOwnedPage([this](PageBuffer* page) { DeletePage(page); });
      Ledger* ledger = ledger_.exchange(nullptr, std::memory_order_relaxed);
      bool last = false;
      if (ledger != nullptr) {
        const std::lock_guard<std::mutex> lock(ledger->mu);
        last = --ledger->members == 0;
        // Hand over before unpinning: the pin keeps the borrowed pages whose
        // generations the scan reads alive.
        if (!last && shared_out) {
          const uint64_t hidden_from = ledger->clock.load(std::memory_order_relaxed) + 1;
          ForEachOwnedPage(
              [&](PageBuffer* page) { ledger->orphans.push_back({page, hidden_from}); });
        }
        if (pin_ != 0) {
          const auto it = ledger->FindPin(pin_);
          if (--it->second == 0) ledger->pins.erase(it);
          ledger->PublishWatermark();
        }
        if (!last && heap_pages_ != nullptr && ledger->spare_tables.size() < kSpareTables) {
          ledger->spare_tables.push_back(std::move(heap_pages_));
        }
      }
      if (last) {
        if (shared_out) ForEachOwnedPage([this](PageBuffer* page) { DeletePage(page); });
        for (const Retired& r : ledger->orphans) DeletePage(r.page);
        delete ledger;
      }
    }
    n_ = 0;
    num_pages_ = 0;
    pages_ = nullptr;
    heap_pages_.reset();
    pin_ = 0;
    retired_.clear();
    retired_head_ = 0;
  }

  template <typename Fn>
  void ForEachOwnedPage(Fn fn) {
    // Only a container that copied a page, or an original (its own zero or
    // fixed pages), can hold pages of its own; a snapshot's drop reads none
    // of its pages.
    const bool may_own = pages_copied_ > 0 || pin_ == 0;
    for (uint32_t p = 0; may_own && p < num_pages_; ++p) {
      if (pages_[p]->gen >= first_gen_) fn(pages_[p]);
    }
    for (size_t r = retired_head_; r < retired_.size(); ++r) fn(retired_[r].page);
  }

  uint32_t n_ = 0;
  uint32_t num_pages_ = 0;
  uint32_t page_entries_ = kPageEntries;
  uint32_t page_shift_ = kPageShift;  ///< log2(page_entries_) when a power of two
  PageBuffer** pages_ = nullptr;  ///< &inline_page_ for one page, heap_pages_ for more
  PageBuffer* inline_page_ = nullptr;
  std::unique_ptr<PageBuffer*[]> heap_pages_;
  /// Live generation; starts above the zero page's generation 0.
  mutable std::atomic<uint64_t> gen_{1};
  /// Generation at which this container began: pages with a generation at
  /// or above it are its own, the others are borrowed.
  uint64_t first_gen_ = 1;
  /// This copy's pin in the ledger; 0 for the original.
  uint64_t pin_ = 0;
  mutable std::atomic<Ledger*> ledger_{nullptr};
  uint64_t pages_copied_ = 0;
  /// Owned pages this container replaced, by ascending generation; the
  /// first retired_head_ are already reclaimed.
  std::vector<Retired> retired_;
  size_t retired_head_ = 0;
  std::vector<PageBuffer*> free_;  ///< reclaimed pages, reused by CopyPage
};

}  // namespace bcc

#endif  // BCC_COMMON_COW_PAGES_H_
