#include "minipetsc/ksp.hpp"

#include <cmath>
#include <stdexcept>

namespace minipetsc {

namespace {

LinearOp wrap(const CsrMatrix& A) {
  return [&A](const Vec& x, Vec& y) { A.multiply(x, y); };
}

double true_residual(const LinearOp& A, const Vec& b, const Vec& x) {
  Vec ax;
  A(x, ax);
  Vec r = b;
  axpy(-1.0, ax, r);
  return norm2(r);
}

}  // namespace

KspResult cg_solve(const LinearOp& A, const Vec& b, Vec& x, const Pc& pc,
                   const KspOptions& opts) {
  KspResult out;

  // From a zero start r = b: A*0 is +0.0 in every entry and b + (-0.0) == b,
  // so skipping the product changes no bit.
  Vec r = b;
  if (x.size() != b.size()) {
    x.assign(b.size(), 0.0);
  } else {
    Vec ax;
    A(x, ax);
    axpy(-1.0, ax, r);
  }

  Vec z;
  pc.apply(r, z);
  Vec p = z;
  double rz = dot(r, z);

  const double r0 = norm2(r);
  if (r0 <= opts.atol) {
    out.converged = true;
    out.residual_norm = r0;
    return out;
  }

  Vec ap;
  for (int it = 0; it < opts.max_iterations; ++it) {
    A(p, ap);
    const double pap = dot(p, ap);
    if (pap <= 0.0) {
      // Not SPD (or breakdown) — report divergence honestly.
      out.iterations = it;
      out.residual_norm = norm2(r);
      return out;
    }
    const double alpha = rz / pap;
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    const double rn = norm2(r);
    out.iterations = it + 1;
    if (rn <= opts.rtol * r0 || rn <= opts.atol) {
      out.converged = true;
      out.residual_norm = rn;
      return out;
    }
    pc.apply(r, z);
    const double rz_new = dot(r, z);
    const double beta = rz_new / rz;
    rz = rz_new;
    aypx(beta, z, p);
  }
  out.residual_norm = norm2(r);
  return out;
}

KspResult gmres_solve(const LinearOp& A, const Vec& b, Vec& x, const Pc& pc,
                      const KspOptions& opts) {
  if (x.size() != b.size()) x.assign(b.size(), 0.0);
  const int m = opts.gmres_restart;
  if (m < 1) throw std::invalid_argument("gmres_solve: restart < 1");
  const std::size_t n = b.size();
  KspResult out;

  // Left-preconditioned initial residual.
  Vec ax;
  A(x, ax);
  Vec raw = b;
  axpy(-1.0, ax, raw);
  Vec r;
  pc.apply(raw, r);
  double beta = norm2(r);
  const double beta0 = beta > 0 ? beta : 1.0;

  if (beta <= opts.atol) {
    out.converged = true;
    out.residual_norm = true_residual(A, b, x);
    return out;
  }

  std::vector<Vec> V;             // Krylov basis
  std::vector<double> H;          // Hessenberg, (m+1) x m column-major
  std::vector<double> cs(static_cast<std::size_t>(m));
  std::vector<double> sn(static_cast<std::size_t>(m));
  std::vector<double> g(static_cast<std::size_t>(m) + 1);

  while (out.iterations < opts.max_iterations) {
    V.assign(1, r);
    scale(V[0], 1.0 / beta);
    H.assign(static_cast<std::size_t>(m + 1) * static_cast<std::size_t>(m), 0.0);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    int k = 0;
    for (; k < m && out.iterations < opts.max_iterations; ++k) {
      ++out.iterations;
      Vec w_raw;
      A(V[static_cast<std::size_t>(k)], w_raw);
      Vec w;
      pc.apply(w_raw, w);

      // Modified Gram-Schmidt.
      for (int i = 0; i <= k; ++i) {
        const double h = dot(w, V[static_cast<std::size_t>(i)]);
        H[static_cast<std::size_t>(i) +
          static_cast<std::size_t>(k) * (static_cast<std::size_t>(m) + 1)] = h;
        axpy(-h, V[static_cast<std::size_t>(i)], w);
      }
      const double h_next = norm2(w);
      H[static_cast<std::size_t>(k) + 1 +
        static_cast<std::size_t>(k) * (static_cast<std::size_t>(m) + 1)] = h_next;

      // Apply the accumulated Givens rotations to the new column.
      auto col = [&](int i) -> double& {
        return H[static_cast<std::size_t>(i) +
                 static_cast<std::size_t>(k) * (static_cast<std::size_t>(m) + 1)];
      };
      for (int i = 0; i < k; ++i) {
        const double t = cs[static_cast<std::size_t>(i)] * col(i) +
                         sn[static_cast<std::size_t>(i)] * col(i + 1);
        col(i + 1) = -sn[static_cast<std::size_t>(i)] * col(i) +
                     cs[static_cast<std::size_t>(i)] * col(i + 1);
        col(i) = t;
      }
      const double denom = std::hypot(col(k), col(k + 1));
      if (denom == 0.0) {
        cs[static_cast<std::size_t>(k)] = 1.0;
        sn[static_cast<std::size_t>(k)] = 0.0;
      } else {
        cs[static_cast<std::size_t>(k)] = col(k) / denom;
        sn[static_cast<std::size_t>(k)] = col(k + 1) / denom;
      }
      col(k) = cs[static_cast<std::size_t>(k)] * col(k) +
               sn[static_cast<std::size_t>(k)] * col(k + 1);
      col(k + 1) = 0.0;
      g[static_cast<std::size_t>(k) + 1] =
          -sn[static_cast<std::size_t>(k)] * g[static_cast<std::size_t>(k)];
      g[static_cast<std::size_t>(k)] =
          cs[static_cast<std::size_t>(k)] * g[static_cast<std::size_t>(k)];

      const double resid = std::abs(g[static_cast<std::size_t>(k) + 1]);
      const bool happy = h_next <= 1e-14 * beta0;
      if (resid <= opts.rtol * beta0 || resid <= opts.atol || happy) {
        ++k;
        break;
      }
      if (h_next == 0.0) {
        ++k;
        break;
      }
      Vec v = w;
      scale(v, 1.0 / h_next);
      V.push_back(std::move(v));
    }

    // Back substitution for the least-squares coefficients.
    std::vector<double> y(static_cast<std::size_t>(k), 0.0);
    for (int i = k - 1; i >= 0; --i) {
      double sum = g[static_cast<std::size_t>(i)];
      for (int j = i + 1; j < k; ++j) {
        sum -= H[static_cast<std::size_t>(i) +
                 static_cast<std::size_t>(j) * (static_cast<std::size_t>(m) + 1)] *
               y[static_cast<std::size_t>(j)];
      }
      y[static_cast<std::size_t>(i)] =
          sum / H[static_cast<std::size_t>(i) +
                  static_cast<std::size_t>(i) * (static_cast<std::size_t>(m) + 1)];
    }
    for (int i = 0; i < k; ++i) {
      axpy(y[static_cast<std::size_t>(i)], V[static_cast<std::size_t>(i)], x);
    }

    // Converged inside the cycle, or out of budget? Check the true residual.
    Vec ax2(n);
    A(x, ax2);
    Vec raw2 = b;
    axpy(-1.0, ax2, raw2);
    pc.apply(raw2, r);
    beta = norm2(r);
    if (beta <= opts.rtol * beta0 || beta <= opts.atol) {
      out.converged = true;
      break;
    }
  }
  out.residual_norm = true_residual(A, b, x);
  return out;
}

KspResult cg_solve(const CsrMatrix& A, const Vec& b, Vec& x, const Pc& pc,
                   const KspOptions& opts) {
  return cg_solve(wrap(A), b, x, pc, opts);
}

KspResult gmres_solve(const CsrMatrix& A, const Vec& b, Vec& x, const Pc& pc,
                      const KspOptions& opts) {
  return gmres_solve(wrap(A), b, x, pc, opts);
}

}  // namespace minipetsc
