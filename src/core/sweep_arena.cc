#include "core/sweep_arena.h"

#include "core/sweep_state.h"
#include "util/narrow.h"

namespace slam {

namespace {

thread_local SweepArena t_thread_arena;
thread_local bool t_thread_arena_in_use = false;

}  // namespace

void SweepArena::PrepareCompute(size_t num_points, const GridAxis& xs) {
  ex.resize(num_points);
  ey.resize(num_points);
  PrepareAxis(xs);
}

void SweepArena::PrepareAxis(const GridAxis& xs) {
  const size_t pixels = CheckedSize(xs.count);
  // size_t arithmetic: pixels + 2 overflows `int` when the axis is within
  // 2 pixels of INT_MAX (regression test in tests/kdv/grid_overflow_test.cc).
  lower_offsets.resize(pixels + 2);
  upper_offsets.resize(pixels + 2);
  lower_cursor.resize(pixels + 1);
  upper_cursor.resize(pixels + 1);
  if (!qx_valid_ || qx_origin_ != xs.origin || qx_gap_ != xs.gap ||
      qx_count_ != xs.count) {
    // The row-local frame's x-origin is row-independent, so the translated
    // pixel coordinates serve every row — and every later compute on the
    // same axis.
    const double origin_x = RowLocalOrigin(xs, WorldY(0.0)).x;
    qx.resize(pixels);
    for (int ix = 0; ix < xs.count; ++ix) {
      qx[CheckedSize(ix)] = xs.Coord(ix) - origin_x;
    }
    qx_valid_ = true;
    qx_origin_ = xs.origin;
    qx_gap_ = xs.gap;
    qx_count_ = xs.count;
  }
}

void SweepArena::PrepareRow(size_t num_endpoints) {
  lb.resize(num_endpoints);
  ub.resize(num_endpoints);
  lower_idx.resize(num_endpoints);
  upper_idx.resize(num_endpoints);
  lower_px.resize(num_endpoints);
  lower_py.resize(num_endpoints);
  upper_px.resize(num_endpoints);
  upper_py.resize(num_endpoints);
}

size_t SweepArena::HeapBytes() const {
  return (ex.capacity() + ey.capacity() + prev_ex.capacity() +
          prev_ey.capacity() + lb.capacity() + ub.capacity() +
          lower_px.capacity() + lower_py.capacity() + upper_px.capacity() +
          upper_py.capacity() + qx.capacity()) *
             sizeof(double) +
         (entry_row.capacity() + row_offsets.capacity() +
          row_exits.capacity() + entering.capacity() + eidx.capacity() +
          prev_idx.capacity() + lower_idx.capacity() + upper_idx.capacity() +
          lower_offsets.capacity() + upper_offsets.capacity() +
          lower_cursor.capacity() + upper_cursor.capacity()) *
             sizeof(int32_t) +
         scratch.HeapBytes();
}

void SweepArena::Release() {
  *this = SweepArena();
}

ScopedArena::ScopedArena() {
  if (!t_thread_arena_in_use) {
    t_thread_arena_in_use = true;
    borrowed_thread_arena_ = true;
    arena_ = &t_thread_arena;
  } else {
    fallback_ = std::make_unique<SweepArena>();
    arena_ = fallback_.get();
  }
}

ScopedArena::~ScopedArena() {
  if (borrowed_thread_arena_) t_thread_arena_in_use = false;
}

SweepArena& ThreadSweepArenaForTest() { return t_thread_arena; }

}  // namespace slam
