// Precondition / invariant checking helpers.
//
// Following the Core Guidelines' preference for expressing contracts without
// preprocessor machinery, these are plain functions. Violations throw: in a
// simulator a silently corrupted run is worse than an aborted one, and tests
// can assert on the exception type.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace gridbox {

/// Thrown when a caller violates a documented precondition.
class PreconditionError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when an internal invariant fails (a bug in gridbox itself).
class InvariantError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Check a caller-facing precondition.
///
/// The string-literal overload is the hot-path form: when the condition
/// holds it does no work at all (the std::string overload would otherwise
/// materialise its message — a heap allocation — on every *passing* check,
/// which the zero-allocation message path cannot afford). A failed check's
/// message names its file relative to the source root ("src/sim/...:42:
/// precondition failed: ..."), so it reads the same in every checkout.
[[noreturn]] void detail_throw_precondition(const char* what,
                                            std::source_location loc);
[[noreturn]] void detail_throw_invariant(const char* what,
                                         std::source_location loc);

inline void expects(bool condition, const char* what,
                    std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] detail_throw_precondition(what, loc);
}

inline void expects(bool condition, const std::string& what,
                    std::source_location loc = std::source_location::current()) {
  if (!condition) detail_throw_precondition(what.c_str(), loc);
}

/// Check an internal invariant.
inline void ensures(bool condition, const char* what,
                    std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] detail_throw_invariant(what, loc);
}

inline void ensures(bool condition, const std::string& what,
                    std::source_location loc = std::source_location::current()) {
  if (!condition) detail_throw_invariant(what.c_str(), loc);
}

}  // namespace gridbox
