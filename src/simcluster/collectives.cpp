#include "simcluster/collectives.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace simcluster {

namespace {

int log2_ceil(int n) {
  int bits = 0;
  int v = 1;
  while (v < n) {
    v *= 2;
    ++bits;
  }
  return bits;
}

void check_ranks(const Machine& m, int nranks) {
  if (nranks < 1 || nranks > m.total_cpus()) {
    throw std::invalid_argument("collective: bad rank count " +
                                std::to_string(nranks));
  }
}

/// Worst-case single link used by a collective over [0, nranks).
double worst_link_time(const Machine& m, int nranks, double bytes) {
  const bool multi = spans_multiple_nodes(m, nranks);
  return m.network().transfer_time(bytes, /*intra_node=*/!multi);
}

}  // namespace

double ptp_time(const Machine& m, int from, int to, double bytes) {
  if (from == to) return 0.0;
  return m.network().transfer_time(bytes, m.same_node(from, to));
}

bool spans_multiple_nodes(const Machine& m, int nranks) {
  check_ranks(m, nranks);
  return m.node_of_rank(0) != m.node_of_rank(nranks - 1);
}

double barrier_time(const Machine& m, int nranks) {
  check_ranks(m, nranks);
  if (nranks == 1) return 0.0;
  return 2.0 * log2_ceil(nranks) * worst_link_time(m, nranks, 0.0);
}

double broadcast_time(const Machine& m, int nranks, double bytes) {
  check_ranks(m, nranks);
  if (nranks == 1) return 0.0;
  return log2_ceil(nranks) * worst_link_time(m, nranks, bytes);
}

double allreduce_time(const Machine& m, int nranks, double bytes) {
  check_ranks(m, nranks);
  if (nranks == 1) return 0.0;
  return 2.0 * log2_ceil(nranks) * worst_link_time(m, nranks, bytes);
}

double alltoall_time(const Machine& m, int nranks, double bytes_per_pair) {
  check_ranks(m, nranks);
  if (nranks == 1) return 0.0;
  // Each rank exchanges with P-1 peers; messages to on-node peers ride the
  // fast link. Estimate the per-rank serialized cost using the mix of intra
  // and inter-node peers of rank 0 (placement is node-major and symmetric
  // enough for a cost model). Node 0 hosts ranks [0, cpus).
  const int intra_peers = std::min(m.nodes().front().cpus, nranks) - 1;
  const int inter_peers = nranks - 1 - intra_peers;
  const auto& net = m.network();
  return intra_peers * net.transfer_time(bytes_per_pair, true) +
         inter_peers * net.transfer_time(bytes_per_pair, false);
}

}  // namespace simcluster
