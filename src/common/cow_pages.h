// Page-shared copy-on-write array: the storage behind the server's
// per-cycle snapshots (the committed values, the MC vector and the sparse
// matrix's column table; DESIGN.md §4g "Paged copy-on-write state").
//
// The n entries live in fixed-size pages, each behind a shared_ptr. Copying
// the container copies only the page table, so a cycle snapshot shares every
// page with the live container; the live container copies a page on its
// first write after a copy. Snapshot build and release are therefore
// O(touched pages + n / kPageEntries) instead of O(n).
//
// Copy-on-write is decided by a generation rule, never by use_count(): each
// table slot records the generation in which this container created its
// page, and copying a container bumps the generation of both sides. A write
// copies the page unless the slot's generation is current, so a page any
// other container can see is never written (a use_count() test would race
// with a reader thread dropping its copy), and the number of pages copied is
// a deterministic function of the write sequence.
//
// A fresh container shares one zero page across all its slots, so
// construction is O(n / kPageEntries). A single-page table is held inline
// and a one-page container owns its zero page, so a container of at most
// kPageEntries entries makes as many allocations as a std::vector would:
// one buffer at construction and one per copy that is followed by a write.
//
// Thread safety: one writer per container. Copying a container only reads
// its table (and bumps an atomic generation), so any number of threads may
// copy one that nobody writes; pages are released through shared_ptr.

#ifndef BCC_COMMON_COW_PAGES_H_
#define BCC_COMMON_COW_PAGES_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

namespace bcc {

template <typename T>
class CowPages {
 public:
  /// Entries per page. Chosen by a sweep at the uplink write rate (DESIGN.md
  /// §4g): smaller pages copy fewer bytes per scattered write but grow the
  /// page table every snapshot copies.
  static constexpr uint32_t kPageShift = 6;
  static constexpr uint32_t kPageEntries = 1u << kPageShift;
  static constexpr size_t kPageBytes = kPageEntries * sizeof(T);

  CowPages() = default;

  /// n value-initialized entries, every page sharing one zero page.
  explicit CowPages(uint32_t n) : n_(n), num_pages_((n + kPageEntries - 1) >> kPageShift) {
    if (n_ == 0) return;
    AllocateTable();
    // Generation 0 is below every live generation, so each slot copies the
    // shared zero page on its first write; a one-page container owns it.
    const std::shared_ptr<PageBuffer> zero = std::make_shared<PageBuffer>();
    const uint64_t zero_gen = num_pages_ == 1 ? gen_.load(std::memory_order_relaxed) : 0;
    for (uint32_t p = 0; p < num_pages_; ++p) table_[p] = Slot{zero, zero_gen};
  }

  /// Shares every page of `other`; both sides copy a page before writing it.
  CowPages(const CowPages& other) { ShareFrom(other); }
  CowPages& operator=(const CowPages& other) {
    if (this != &other) ShareFrom(other);
    return *this;
  }
  CowPages(CowPages&& other) noexcept { TakeFrom(other); }
  CowPages& operator=(CowPages&& other) noexcept {
    if (this != &other) TakeFrom(other);
    return *this;
  }

  uint32_t size() const { return n_; }
  const T& operator[](uint32_t i) const {
    assert(i < n_);
    return table_[i >> kPageShift].page->entries[i & (kPageEntries - 1)];
  }

  /// Entry i for writing: copies its page first unless this container
  /// created it since its last copy.
  T& Mutable(uint32_t i) {
    assert(i < n_);
    Slot& slot = table_[i >> kPageShift];
    if (slot.gen != gen_.load(std::memory_order_relaxed)) CopyPage(i >> kPageShift);
    return slot.page->entries[i & (kPageEntries - 1)];
  }
  void Set(uint32_t i, const T& value) { Mutable(i) = value; }

  uint32_t num_pages() const { return num_pages_; }
  /// Page p's entries (the last page may be short).
  std::span<const T> Page(uint32_t p) const {
    assert(p < num_pages_);
    return {table_[p].page->entries, PageLength(p)};
  }
  /// Whether page p is the same buffer in both containers (tests, equality).
  bool SharesPage(const CowPages& other, uint32_t p) const {
    return table_[p].page == other.table_[p].page;
  }

  /// Pages this container has copied on write since it was built or copied
  /// into (cumulative; its own zero-page copies included).
  uint64_t pages_copied() const { return pages_copied_; }
  /// Bytes one copy of the container moves: the page table.
  size_t table_bytes() const { return num_pages_ * sizeof(Slot); }

  /// Entry-wise equality; shared pages compare by identity.
  friend bool operator==(const CowPages& a, const CowPages& b) {
    if (a.n_ != b.n_) return false;
    for (uint32_t p = 0; p < a.num_pages_; ++p) {
      if (a.SharesPage(b, p)) continue;
      const std::span<const T> pa = a.Page(p);
      if (!std::equal(pa.begin(), pa.end(), b.Page(p).begin())) return false;
    }
    return true;
  }

 private:
  struct PageBuffer {
    T entries[kPageEntries] = {};
  };
  struct Slot {
    std::shared_ptr<PageBuffer> page;
    uint64_t gen = 0;
  };

  uint32_t PageLength(uint32_t p) const { return std::min(kPageEntries, n_ - (p << kPageShift)); }

  void AllocateTable() {
    if (num_pages_ <= 1) {
      table_ = &inline_;
    } else {
      heap_ = std::make_unique<Slot[]>(num_pages_);
      table_ = heap_.get();
    }
  }

  void ShareFrom(const CowPages& other) {
    const uint64_t gen = other.gen_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (num_pages_ != other.num_pages_ || table_ == nullptr) {
      heap_.reset();
      inline_ = Slot{};
      num_pages_ = other.num_pages_;
      table_ = nullptr;
      if (num_pages_ > 0) AllocateTable();
    }
    n_ = other.n_;
    std::copy_n(other.table_, num_pages_, table_);
    gen_.store(gen, std::memory_order_relaxed);
    pages_copied_ = 0;
  }

  void TakeFrom(CowPages& other) {
    n_ = std::exchange(other.n_, 0);
    num_pages_ = std::exchange(other.num_pages_, 0);
    heap_ = std::move(other.heap_);
    inline_ = std::move(other.inline_);
    table_ = num_pages_ == 0 ? nullptr : num_pages_ == 1 ? &inline_ : heap_.get();
    other.table_ = nullptr;
    gen_.store(other.gen_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    pages_copied_ = std::exchange(other.pages_copied_, 0);
  }

  void CopyPage(uint32_t p) {
    Slot& slot = table_[p];
    slot.page = std::make_shared<PageBuffer>(*slot.page);
    slot.gen = gen_.load(std::memory_order_relaxed);
    ++pages_copied_;
  }

  uint32_t n_ = 0;
  uint32_t num_pages_ = 0;
  Slot* table_ = nullptr;  ///< &inline_ for one page, heap_ for more
  Slot inline_;
  std::unique_ptr<Slot[]> heap_;
  /// Live generation; starts above every zero-page slot's generation 0.
  mutable std::atomic<uint64_t> gen_{1};
  uint64_t pages_copied_ = 0;
};

}  // namespace bcc

#endif  // BCC_COMMON_COW_PAGES_H_
