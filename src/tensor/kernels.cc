// The one implementation of every shared compute kernel. The eager
// tensor/autograd path and the compiled graph executor both call these
// functions, so their results are bit-identical by construction.
#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"

namespace vsd::tensor::kernels {

void MatMulInto(const float* a, const float* b, float* out, int m, int k,
                int n) {
  std::fill(out, out + static_cast<long long>(m) * n, 0.0f);
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      float* orow = out + i * n;
      for (int j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void MatMulI8Into(const float* a, const int8_t* bq, const float* bscale,
                  const int32_t* bzero, float* out, int m, int k, int n) {
  std::fill(out, out + static_cast<long long>(m) * n, 0.0f);
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      if (av == 0.0f) continue;
      const int8_t* brow = bq + p * n;
      const float scale = bscale[p];
      const int32_t zero = bzero[p];
      float* orow = out + i * n;
      // Dequantize inline with the exact op order of
      // quant.h::DequantizeRowInt8 (scale * (q - zero), then av * w), so
      // the fused kernel is bit-identical to dequantize-then-MatMulInto.
      for (int j = 0; j < n; ++j) {
        const float w =
            scale * static_cast<float>(static_cast<int32_t>(brow[j]) - zero);
        orow[j] += av * w;
      }
    }
  }
}

void AddRowsInto(const float* a, const float* bias, float* out, int rows,
                 int cols) {
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      out[i * cols + j] = a[i * cols + j] + bias[j];
    }
  }
}

void ReluInto(const float* x, float* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void TanhInto(const float* x, float* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = std::tanh(x[i]);
}

void SigmoidInto(const float* x, float* out, int n) {
  for (int i = 0; i < n; ++i) {
    out[i] = static_cast<float>(vsd::Sigmoid(static_cast<double>(x[i])));
  }
}

void GeluInto(const float* x, float* out, int n) {
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  for (int i = 0; i < n; ++i) {
    const float v = x[i];
    const float inner = kC * (v + 0.044715f * v * v * v);
    out[i] = 0.5f * v * (1.0f + std::tanh(inner));
  }
}

void ConcatRowsInto(const float* a, const float* b, float* out, int rows,
                    int da, int db) {
  const int d = da + db;
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < da; ++j) out[i * d + j] = a[i * da + j];
    for (int j = 0; j < db; ++j) out[i * d + da + j] = b[i * db + j];
  }
}

void Im2ColInto(const float* x, float* out, int n, int h, int w, int c,
                int kh, int kw, int stride, int pad) {
  const int oh = (h + 2 * pad - kh) / stride + 1;
  const int ow = (w + 2 * pad - kw) / stride + 1;
  const int patch = kh * kw * c;
  std::fill(out, out + static_cast<long long>(n) * oh * ow * patch, 0.0f);
  for (int b = 0; b < n; ++b) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        const int row = (b * oh + oy) * ow + ox;
        int col = 0;
        for (int ky = 0; ky < kh; ++ky) {
          const int iy = oy * stride + ky - pad;
          for (int kx = 0; kx < kw; ++kx) {
            const int ix = ox * stride + kx - pad;
            for (int ch = 0; ch < c; ++ch, ++col) {
              if (iy >= 0 && iy < h && ix >= 0 && ix < w) {
                out[row * patch + col] =
                    x[((b * h + iy) * w + ix) * c + ch];
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace vsd::tensor::kernels
