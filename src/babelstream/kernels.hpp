#pragma once
/// \file kernels.hpp
/// \brief The five BabelStream 4.0 kernels and their byte-accounting
/// rules.
///
/// BabelStream's reported bandwidth divides *counted* bytes by measured
/// time, where counted bytes ignore write-allocate traffic (paper §3.1:
/// "the bandwidth numerator is twice the allocation size for copy, mul,
/// and dot, and three times the allocation size for Add and Triad"). On
/// CPUs whose plain stores allocate cache lines, the *actual* memory
/// traffic of a store is read-for-ownership + write, which is why
/// reported CPU bandwidth sits below the machine's raw capability and why
/// Dot (which has no store) is usually the best op.

#include <array>
#include <string_view>

#include "core/units.hpp"

namespace nodebench::babelstream {

/// a, b, c are arrays of `arrayBytes` each:
///   Copy:  c = a          Mul: b = k*c      Add: c = a + b
///   Triad: a = b + k*c    Dot: sum(a*b)
enum class StreamOp { Copy, Mul, Add, Triad, Dot };

inline constexpr std::array<StreamOp, 5> kAllOps{
    StreamOp::Copy, StreamOp::Mul, StreamOp::Add, StreamOp::Triad,
    StreamOp::Dot};

[[nodiscard]] std::string_view streamOpName(StreamOp op);

/// Counted array-traversals (BabelStream numerator / arrayBytes).
[[nodiscard]] double countedFactor(StreamOp op);

/// Actual array-traversals on a host CPU: the counted ones plus one
/// write-allocate fill per store (BabelStream 4.0's OpenMP kernels use
/// plain stores). Device HBM pays no fill, so devices use countedFactor.
[[nodiscard]] double actualFactor(StreamOp op);

/// Number of distinct arrays the kernel touches (its working set).
[[nodiscard]] int arraysTouched(StreamOp op);

[[nodiscard]] inline ByteCount countedBytes(StreamOp op, ByteCount arrayBytes) {
  return ByteCount::bytes(static_cast<std::uint64_t>(
      countedFactor(op) * arrayBytes.asDouble()));
}

}  // namespace nodebench::babelstream
