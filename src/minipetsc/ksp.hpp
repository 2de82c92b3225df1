#pragma once

/// \file ksp.hpp
/// Krylov solvers (PETSc KSP / the paper's "SLES linear equation solver").
/// Operators are supplied either as a CsrMatrix or as a matrix-free
/// LinearOp, which is what the SNES layer uses for Jacobian-vector products.

#include <functional>

#include "minipetsc/csr_matrix.hpp"
#include "minipetsc/pc.hpp"
#include "minipetsc/vec.hpp"

namespace minipetsc {

/// y <- A x.
using LinearOp = std::function<void(const Vec& x, Vec& y)>;

struct KspOptions {
  double rtol = 1e-8;       ///< relative decrease of the preconditioned residual
  double atol = 1e-50;
  int max_iterations = 10000;
  int gmres_restart = 30;
};

struct KspResult {
  bool converged = false;
  int iterations = 0;
  double residual_norm = 0.0;  ///< final (true) residual 2-norm
};

/// Preconditioned conjugate gradients; requires a symmetric positive-definite
/// operator and a symmetric positive-definite preconditioner. An x of the
/// wrong size (an empty one, say) starts CG from zero: x is zero-filled and
/// the initial residual is b, without a product with A.
[[nodiscard]] KspResult cg_solve(const LinearOp& A, const Vec& b, Vec& x,
                                 const Pc& pc, const KspOptions& opts = {});

/// Restarted GMRES with left preconditioning (works for nonsymmetric ops).
[[nodiscard]] KspResult gmres_solve(const LinearOp& A, const Vec& b, Vec& x,
                                    const Pc& pc, const KspOptions& opts = {});

/// Convenience overloads on assembled matrices.
[[nodiscard]] KspResult cg_solve(const CsrMatrix& A, const Vec& b, Vec& x,
                                 const Pc& pc, const KspOptions& opts = {});
[[nodiscard]] KspResult gmres_solve(const CsrMatrix& A, const Vec& b, Vec& x,
                                    const Pc& pc, const KspOptions& opts = {});

}  // namespace minipetsc
