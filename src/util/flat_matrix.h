// FlatMatrix: a dense square matrix of doubles in one contiguous row-major
// allocation, shared copy-on-write.
//
// The allocator's hot loops walk whole rows of the NL/latency/bandwidth
// matrices (addition costs for a start node, pair sums for a candidate).
// With vector<vector<double>> every row is its own heap block, so those
// walks chase a pointer per row and the V² doubles are scattered across the
// heap. FlatMatrix keeps the classic m[i][j] syntax (operator[] yields a
// pointer to the row) while making a row walk a linear scan and the whole
// matrix one allocation.
//
// Copying a FlatMatrix shares its value buffer in O(1). The monitor's pair
// matrices change far less often than its node records (the paper probes
// pairs every 1-5 min and samples nodes every 3-10 s), so the store, every
// snapshot it assembles, the epochs built from them and a follower's
// replicated state all hold the same buffers until a pair write lands.
//
// Every non-const accessor — operator[], at, data, assign, fill and
// zero_diagonal — first makes the buffer private to this matrix, cloning it
// when another copy shares it ("detach"); the other copies keep the old
// values. Two consequences for callers:
//   * Read through const references. A read through a non-const matrix
//     whose buffer is shared clones the whole matrix.
//   * A pointer from a non-const accessor writes only this matrix until the
//     matrix is copied again; writing through it after a copy would change
//     the copy too. Hot write loops take data() once and index it.
//
// Copies may be read, written and destroyed on different threads, like
// values. The buffer carries its own reference count rather than sitting in
// a std::shared_ptr: the in-place write test must be an acquire load of the
// count (so the last other owner's reads happen before the write), and
// shared_ptr::use_count() is a relaxed load that ThreadSanitizer cannot see
// ordered by a separate fence.
#pragma once

#include <atomic>
#include <cstddef>
#include <initializer_list>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "util/check.h"

namespace nlarm::util {

// All pair-matrix index arithmetic is 64-bit: V ≥ 65536 makes V*V overflow
// 32-bit (and even int64 sign bits at absurd V), so the element count is
// validated at construction instead of trusted.
static_assert(sizeof(std::size_t) >= 8,
              "FlatMatrix requires 64-bit size_t for V*V index arithmetic");

class FlatMatrix {
 public:
  FlatMatrix() = default;

  /// n×n matrix with every entry set to `fill` (including the diagonal).
  FlatMatrix(std::size_t n, double fill);

  /// Converts from the nested-vector form. Implicit on purpose: tests and
  /// tools build small literal matrices as vector<vector<double>>.
  /// Rows must all have length equal to the row count.
  FlatMatrix(const std::vector<std::vector<double>>& rows);

  FlatMatrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Shares `other`'s buffer.
  FlatMatrix(const FlatMatrix& other) noexcept
      : n_(other.n_), buffer_(other.buffer_), values_(other.values_) {
    if (buffer_ != nullptr) {
      buffer_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  FlatMatrix(FlatMatrix&& other) noexcept { swap(other); }
  FlatMatrix& operator=(FlatMatrix other) noexcept {
    swap(other);
    return *this;
  }
  ~FlatMatrix() { release(); }

  void swap(FlatMatrix& other) noexcept {
    std::swap(n_, other.n_);
    std::swap(buffer_, other.buffer_);
    std::swap(values_, other.values_);
  }

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  double* operator[](std::size_t i) { return data() + i * n_; }
  const double* operator[](std::size_t i) const { return values_ + i * n_; }

  /// Bounds-checked element access (throws CheckError).
  double& at(std::size_t i, std::size_t j);
  double at(std::size_t i, std::size_t j) const;

  std::span<const double> row(std::size_t i) const {
    return {values_ + i * n_, n_};
  }

  double* data() {
    detach();
    return values_;
  }
  const double* data() const { return values_; }
  std::size_t value_count() const { return n_ * n_; }

  /// Resizes to n×n and sets every entry to `fill`. Reuses the buffer when
  /// it is private and already holds n×n values.
  void assign(std::size_t n, double fill);

  void fill(double value);
  void zero_diagonal();

  bool operator==(const FlatMatrix& other) const;

 private:
  struct Buffer {
    explicit Buffer(std::size_t count) : values(new double[count]) {}
    std::atomic<std::size_t> refs{1};
    std::unique_ptr<double[]> values;
  };

  /// Rejects dimensions whose n*n element count would overflow size_t.
  static std::size_t checked_dim(std::size_t n) {
    NLARM_CHECK(n == 0 || n <= std::numeric_limits<std::size_t>::max() / n)
        << "FlatMatrix: n*n overflows size_t";
    return n;
  }

  /// True when no other matrix holds the buffer. The acquire pairs with the
  /// release half of every other owner's decrement, so their reads of the
  /// buffer happen before this matrix writes it in place.
  bool is_private() const {
    return buffer_->refs.load(std::memory_order_acquire) == 1;
  }

  /// Makes the buffer private, cloning it when it is shared.
  void detach() {
    if (buffer_ != nullptr && !is_private()) clone();
  }
  void clone();

  /// Installs a private, uninitialized n×n buffer (none when n is 0) and
  /// drops the old one; a failed allocation leaves the matrix unchanged.
  void reallocate(std::size_t n);
  void release() noexcept;

  std::size_t n_ = 0;
  Buffer* buffer_ = nullptr;
  double* values_ = nullptr;  ///< buffer_->values, cached for reads
};

}  // namespace nlarm::util
