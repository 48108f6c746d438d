// Tensor shape descriptor shared by the cost and memory models.
//
// CNN layers use NCHW, transformer layers use (N, S, H) mapped onto the
// same storage; `numel` is the only quantity the analytic models need, but
// keeping the dims lets the zoo and tests check shape propagation.
#pragma once

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace karma::graph {

class TensorShape {
 public:
  TensorShape() = default;
  explicit TensorShape(std::vector<std::int64_t> dims) : dims_(std::move(dims)) {
    for (auto d : dims_)
      if (d <= 0) throw std::invalid_argument("TensorShape: non-positive dim");
  }

  /// NCHW convenience constructor.
  static TensorShape nchw(std::int64_t n, std::int64_t c, std::int64_t h,
                          std::int64_t w) {
    return TensorShape({n, c, h, w});
  }
  /// (batch, sequence, hidden) for transformer-family layers.
  static TensorShape nsh(std::int64_t n, std::int64_t s, std::int64_t h) {
    return TensorShape({n, s, h});
  }

  std::int64_t numel() const {
    return std::accumulate(dims_.begin(), dims_.end(), std::int64_t{1},
                           std::multiplies<>());
  }
  /// Elements per sample (all dims except the leading batch dim).
  std::int64_t numel_per_sample() const {
    if (dims_.empty()) return 1;
    return numel() / dims_.front();
  }
  std::int64_t batch() const { return dims_.empty() ? 1 : dims_.front(); }
  std::size_t rank() const { return dims_.size(); }
  std::int64_t dim(std::size_t i) const { return dims_.at(i); }
  const std::vector<std::int64_t>& dims() const { return dims_; }

  /// Returns a copy with the batch dimension replaced.
  TensorShape with_batch(std::int64_t n) const {
    if (dims_.empty()) throw std::logic_error("with_batch on scalar shape");
    auto d = dims_;
    d.front() = n;
    return TensorShape(d);
  }

  bool operator==(const TensorShape& o) const { return dims_ == o.dims_; }

  std::string to_string() const {
    std::string s = "[";
    for (std::size_t i = 0; i < dims_.size(); ++i) {
      if (i) s += 'x';
      s += std::to_string(dims_[i]);
    }
    s += ']';
    return s;
  }

 private:
  std::vector<std::int64_t> dims_;
};

}  // namespace karma::graph
