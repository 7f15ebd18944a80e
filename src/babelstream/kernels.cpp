#include "babelstream/kernels.hpp"

#include "core/error.hpp"

namespace nodebench::babelstream {

std::string_view streamOpName(StreamOp op) {
  switch (op) {
    case StreamOp::Copy: return "Copy";
    case StreamOp::Mul: return "Mul";
    case StreamOp::Add: return "Add";
    case StreamOp::Triad: return "Triad";
    case StreamOp::Dot: return "Dot";
  }
  return "?";
}

double countedFactor(StreamOp op) {
  switch (op) {
    case StreamOp::Copy:
    case StreamOp::Mul:
    case StreamOp::Dot:
      return 2.0;
    case StreamOp::Add:
    case StreamOp::Triad:
      return 3.0;
  }
  throw InvariantError("unhandled StreamOp");
}

double actualFactor(StreamOp op) {
  switch (op) {
    case StreamOp::Copy:
    case StreamOp::Mul:
      return 3.0;  // 2 + one fill for the store
    case StreamOp::Add:
    case StreamOp::Triad:
      return 4.0;  // 3 + one fill for the store
    case StreamOp::Dot:
      return 2.0;  // read-only
  }
  throw InvariantError("unhandled StreamOp");
}

int arraysTouched(StreamOp op) {
  switch (op) {
    case StreamOp::Copy:
    case StreamOp::Mul:
    case StreamOp::Dot:
      return 2;
    case StreamOp::Add:
    case StreamOp::Triad:
      return 3;
  }
  throw InvariantError("unhandled StreamOp");
}

}  // namespace nodebench::babelstream
