#include "util/flat_matrix.h"

#include <algorithm>

#include "util/check.h"

namespace nlarm::util {

FlatMatrix::FlatMatrix(std::size_t n, double fill) { assign(n, fill); }

namespace {

// Checks every row before the matrix allocates: a throwing constructor
// never runs the destructor that would free the buffer.
template <typename Rows>
void check_square(const Rows& rows) {
  for (const auto& row : rows) {
    NLARM_CHECK(row.size() == rows.size())
        << "matrix row has " << row.size() << " entries, expected "
        << rows.size();
  }
}

}  // namespace

FlatMatrix::FlatMatrix(const std::vector<std::vector<double>>& rows) {
  check_square(rows);
  reallocate(rows.size());
  double* out = values_;
  for (const std::vector<double>& row : rows) {
    out = std::copy(row.begin(), row.end(), out);
  }
}

FlatMatrix::FlatMatrix(
    std::initializer_list<std::initializer_list<double>> rows) {
  check_square(rows);
  reallocate(rows.size());
  double* out = values_;
  for (const auto& row : rows) out = std::copy(row.begin(), row.end(), out);
}

double& FlatMatrix::at(std::size_t i, std::size_t j) {
  NLARM_CHECK(i < n_ && j < n_)
      << "matrix index (" << i << ", " << j << ") out of " << n_ << "x" << n_;
  return data()[i * n_ + j];
}

double FlatMatrix::at(std::size_t i, std::size_t j) const {
  NLARM_CHECK(i < n_ && j < n_)
      << "matrix index (" << i << ", " << j << ") out of " << n_ << "x" << n_;
  return values_[i * n_ + j];
}

void FlatMatrix::assign(std::size_t n, double fill) {
  if (n != n_ || buffer_ == nullptr || !is_private()) reallocate(n);
  std::fill_n(values_, value_count(), fill);
}

void FlatMatrix::fill(double value) { assign(n_, value); }

void FlatMatrix::zero_diagonal() {
  double* values = data();
  for (std::size_t i = 0; i < n_; ++i) values[i * n_ + i] = 0.0;
}

bool FlatMatrix::operator==(const FlatMatrix& other) const {
  return n_ == other.n_ &&
         std::equal(values_, values_ + value_count(), other.values_);
}

void FlatMatrix::clone() {
  auto* copy = new Buffer(value_count());
  std::copy_n(values_, value_count(), copy->values.get());
  release();
  buffer_ = copy;
  values_ = copy->values.get();
}

void FlatMatrix::reallocate(std::size_t n) {
  Buffer* fresh = n == 0 ? nullptr : new Buffer(checked_dim(n) * n);
  release();
  n_ = n;
  buffer_ = fresh;
  values_ = fresh == nullptr ? nullptr : fresh->values.get();
}

void FlatMatrix::release() noexcept {
  if (buffer_ != nullptr &&
      buffer_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete buffer_;
  }
  buffer_ = nullptr;
  values_ = nullptr;
}

}  // namespace nlarm::util
