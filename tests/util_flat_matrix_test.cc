#include "util/flat_matrix.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.h"

namespace nlarm::util {
namespace {

TEST(FlatMatrixTest, FilledConstruction) {
  FlatMatrix m(3, 2.5);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.value_count(), 9u);
  EXPECT_FALSE(m.empty());
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(m[i][j], 2.5);
    }
  }
}

TEST(FlatMatrixTest, DefaultIsEmpty) {
  FlatMatrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.value_count(), 0u);
}

TEST(FlatMatrixTest, ConvertsFromNestedVectors) {
  const std::vector<std::vector<double>> rows{
      {0.0, 1.0, 2.0}, {1.0, 0.0, 3.0}, {2.0, 3.0, 0.0}};
  const FlatMatrix m = rows;  // implicit conversion on purpose
  ASSERT_EQ(m.size(), 3u);
  EXPECT_DOUBLE_EQ(m[0][1], 1.0);
  EXPECT_DOUBLE_EQ(m[1][2], 3.0);
  EXPECT_DOUBLE_EQ(m[2][0], 2.0);
}

TEST(FlatMatrixTest, RaggedRowsRejected) {
  const std::vector<std::vector<double>> ragged{{0.0, 1.0}, {1.0}};
  EXPECT_THROW(FlatMatrix{ragged}, CheckError);
}

TEST(FlatMatrixTest, InitializerListConstruction) {
  const FlatMatrix m{{0.0, 4.0}, {4.0, 0.0}};
  ASSERT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m[0][1], 4.0);
  EXPECT_DOUBLE_EQ(m[1][0], 4.0);
}

TEST(FlatMatrixTest, RowsAreContiguous) {
  FlatMatrix m(4, 0.0);
  m[2][3] = 7.0;
  // Row-major layout: element (i, j) lives at data()[i*n + j].
  EXPECT_DOUBLE_EQ(m.data()[2 * 4 + 3], 7.0);
  EXPECT_EQ(m.row(2).size(), 4u);
  EXPECT_DOUBLE_EQ(m.row(2)[3], 7.0);
}

TEST(FlatMatrixTest, CheckedAccess) {
  FlatMatrix m(2, 1.0);
  m.at(0, 1) = 5.0;
  EXPECT_DOUBLE_EQ(m.at(0, 1), 5.0);
  EXPECT_THROW(m.at(2, 0), CheckError);
  EXPECT_THROW(m.at(0, 2), CheckError);
  const FlatMatrix& cm = m;
  EXPECT_THROW(cm.at(5, 5), CheckError);
}

TEST(FlatMatrixTest, AssignReshapesAndRefills) {
  FlatMatrix m(3, 9.0);
  m.assign(2, 1.5);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.value_count(), 4u);
  EXPECT_DOUBLE_EQ(m[1][1], 1.5);
}

TEST(FlatMatrixTest, FillAndZeroDiagonal) {
  FlatMatrix m(3, 0.0);
  m.fill(2.0);
  m.zero_diagonal();
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(m[i][j], i == j ? 0.0 : 2.0);
    }
  }
}

TEST(FlatMatrixTest, Equality) {
  FlatMatrix a(2, 1.0);
  FlatMatrix b(2, 1.0);
  EXPECT_EQ(a, b);
  b[0][1] = 2.0;
  EXPECT_NE(a, b);
}

// --- copy-on-write contract. Sharing is observed through const data()
// pointers: only non-const accessors may detach. ---

const double* buffer_of(const FlatMatrix& m) { return m.data(); }

TEST(FlatMatrixCowTest, CopySharesItsBuffer) {
  FlatMatrix a(3, 1.5);
  const FlatMatrix b = a;
  FlatMatrix c;
  c = b;
  EXPECT_EQ(buffer_of(a), buffer_of(b));
  EXPECT_EQ(buffer_of(a), buffer_of(c));
  FlatMatrix moved = std::move(c);
  EXPECT_EQ(buffer_of(moved), buffer_of(a));
}

TEST(FlatMatrixCowTest, WriteDetachesOnlyTheWritingSide) {
  FlatMatrix original(3, 1.0);
  FlatMatrix copy = original;
  const double* shared = buffer_of(original);

  // Through the copy: the copy moves to a private buffer, the original
  // keeps the shared one and its values.
  copy[0][1] = 5.0;
  EXPECT_NE(buffer_of(copy), shared);
  EXPECT_EQ(buffer_of(original), shared);
  EXPECT_DOUBLE_EQ(original[0][1], 1.0);
  EXPECT_DOUBLE_EQ(copy[0][1], 5.0);
  EXPECT_DOUBLE_EQ(copy[1][2], 1.0);

  // Through the original: same rule the other way round.
  const FlatMatrix second = original;
  original[2][0] = 7.0;
  EXPECT_NE(buffer_of(original), shared);
  EXPECT_EQ(buffer_of(second), shared);
  EXPECT_DOUBLE_EQ(second[2][0], 1.0);
  EXPECT_DOUBLE_EQ(original[2][0], 7.0);
}

TEST(FlatMatrixCowTest, PrivateBufferIsWrittenInPlace) {
  FlatMatrix m(3, 0.0);
  const double* before = buffer_of(m);
  m[1][2] = 4.0;
  EXPECT_EQ(buffer_of(m), before);
  {
    const FlatMatrix copy = m;
  }
  // The copy is gone, so the buffer is private again.
  m[2][1] = 4.0;
  EXPECT_EQ(buffer_of(m), before);
}

TEST(FlatMatrixCowTest, EveryMutatorDetachesASharedMatrix) {
  const std::vector<std::pair<const char*, std::function<void(FlatMatrix&)>>>
      mutators = {
          {"operator[]", [](FlatMatrix& m) { m[0][1] = 9.0; }},
          {"at", [](FlatMatrix& m) { m.at(0, 1) = 9.0; }},
          {"data", [](FlatMatrix& m) { m.data()[1] = 9.0; }},
          {"assign", [](FlatMatrix& m) { m.assign(3, 9.0); }},
          {"fill", [](FlatMatrix& m) { m.fill(9.0); }},
          {"zero_diagonal", [](FlatMatrix& m) { m.zero_diagonal(); }},
      };
  for (const auto& [name, mutate] : mutators) {
    SCOPED_TRACE(name);
    FlatMatrix m(3, 2.0);
    const FlatMatrix other = m;
    mutate(m);
    EXPECT_NE(buffer_of(m), buffer_of(other));
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < 3; ++j) {
        EXPECT_DOUBLE_EQ(other[i][j], 2.0);
      }
    }
  }
}

TEST(FlatMatrixCowTest, ConstReadsNeverDetach) {
  FlatMatrix m(3, 2.0);
  m[0][2] = 3.0;
  const FlatMatrix copy = m;
  const FlatMatrix& view = m;
  EXPECT_DOUBLE_EQ(view[0][2], 3.0);
  EXPECT_DOUBLE_EQ(view.at(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(view.row(0)[2], 3.0);
  EXPECT_DOUBLE_EQ(view.data()[2], 3.0);
  EXPECT_EQ(view, copy);
  EXPECT_EQ(view.size(), 3u);
  EXPECT_EQ(buffer_of(m), buffer_of(copy));
}

// A copy read and released on another thread lets the owner write in place
// again; the owner's write must be ordered after that thread's reads by the
// buffer's reference count alone (the hand-off mutex orders only the hand
// over). ThreadSanitizer checks that ordering.
TEST(FlatMatrixCowTest, ConcurrentReaderReleaseOrdersInPlaceWrites) {
  FlatMatrix owner(16, 0.0);
  std::mutex slot_mutex;
  std::unique_ptr<const FlatMatrix> slot;
  std::atomic<bool> done{false};
  std::atomic<int> consumed{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      std::unique_ptr<const FlatMatrix> copy;
      {
        std::lock_guard<std::mutex> lock(slot_mutex);
        copy = std::move(slot);
      }
      if (copy == nullptr) {
        std::this_thread::yield();
        continue;
      }
      double sum = 0.0;
      for (std::size_t i = 0; i < copy->size(); ++i) sum += (*copy)[i][i];
      EXPECT_GE(sum, 0.0);
      copy.reset();  // the last other owner lets go, off the mutex
      consumed.fetch_add(1, std::memory_order_relaxed);
    }
  });
  int writes_in_place = 0;
  for (int round = 0; round < 200; ++round) {
    {
      std::lock_guard<std::mutex> lock(slot_mutex);
      slot = std::make_unique<const FlatMatrix>(owner);
    }
    while (consumed.load(std::memory_order_relaxed) <= round) {
      std::this_thread::yield();
    }
    const double* before = buffer_of(owner);
    owner[static_cast<std::size_t>(round) % 16]
         [static_cast<std::size_t>(round) % 16] = 1.0;
    if (buffer_of(owner) == before) ++writes_in_place;
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(writes_in_place, 200);
}

}  // namespace
}  // namespace nlarm::util
