#ifndef VSD_TENSOR_DTYPE_H_
#define VSD_TENSOR_DTYPE_H_

#include <cstddef>

namespace vsd::tensor {

/// Element type of a Tensor. kF32 is the universal compute type; kI8 is a
/// storage format for frozen inference weights only (per-row asymmetric
/// quantization, see tensor/quant.h) — training and every activation stay
/// fp32.
enum class DType {
  kF32 = 0,
  kI8 = 1,
};

/// Bytes per element of the dense payload (quantization side tables — the
/// per-row scales and zero-points — are accounted separately).
constexpr size_t DTypeSize(DType dtype) {
  return dtype == DType::kI8 ? 1 : 4;
}

constexpr const char* DTypeName(DType dtype) {
  return dtype == DType::kI8 ? "i8" : "f32";
}

}  // namespace vsd::tensor

#endif  // VSD_TENSOR_DTYPE_H_
