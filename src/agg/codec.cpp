#include "src/agg/codec.h"

#include <string>

namespace gridbox::agg {

void ByteWriter::overflow(std::size_t n, const char* field) const {
  // Compose the diagnostic only on failure. Naming the field and offset
  // points straight at the layout that broke the budget.
  throw PreconditionError(
      "message exceeds the constant frame capacity: writing " +
      std::string(field) + " of " + std::to_string(n) + " byte(s) at offset " +
      std::to_string(frame_.size()) + " (capacity " +
      std::to_string(net::kMaxPayloadBytes) + ")");
}

void write_partial(ByteWriter& w, const Partial& p) {
  w.u32(p.count());
  w.f64(p.sum());
  w.f64(p.sum_squares());
  w.f64(p.min());
  w.f64(p.max());
}

Partial read_partial(ByteReader& r) {
  const std::uint32_t count = r.u32();
  const double sum = r.f64();
  const double sum_squares = r.f64();
  const double min = r.f64();
  const double max = r.f64();
  return Partial::deserialize(count, sum, sum_squares, min, max);
}

}  // namespace gridbox::agg
