#pragma once

/// \file machine.hpp
/// Model of a parallel machine: a set of SMP nodes, each with some number of
/// CPUs of a given relative speed, joined by a two-level network (shared
/// memory inside a node, interconnect between nodes). This substitutes for
/// the paper's physical testbeds — the NERSC SP-3 (16-way SMP nodes),
/// Seaborg, Hockney and the dual-Xeon Myrinet Linux cluster — exposing the
/// same knobs the tuning experiments exercise: node count, CPUs used per
/// node, and per-CPU speed heterogeneity (the Pentium4/PentiumII mix of the
/// paper's Fig. 3).
///
/// Ranks are laid out node-major: rank r lives on the node whose CPU ranges
/// cover r, exactly like a default MPI round-block mapping.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace simcluster {

/// Two-level network: intra-node (shared memory) and inter-node (fabric).
/// Bandwidth is bytes/second, latency is seconds per message.
struct NetworkSpec {
  double intra_latency_s = 1.0e-6;
  double intra_bandwidth_Bps = 4.0e9;
  double inter_latency_s = 20.0e-6;
  double inter_bandwidth_Bps = 3.0e8;

  /// Time to move `bytes` across one link of the given locality.
  [[nodiscard]] double transfer_time(double bytes, bool intra_node) const {
    if (bytes < 0) throw std::invalid_argument("transfer_time: negative bytes");
    return intra_node ? intra_latency_s + bytes / intra_bandwidth_Bps
                      : inter_latency_s + bytes / inter_bandwidth_Bps;
  }
};

/// One group of identical nodes.
struct NodeGroup {
  int node_count = 0;
  int cpus_per_node = 0;
  double cpu_speed = 1.0;  ///< relative to the reference CPU (1.0)
  std::string cpu_name;    ///< for reports ("Power3", "Xeon-2.66", ...)
};

class Machine {
 public:
  explicit Machine(NetworkSpec network = {}) : network_(network) {}

  /// Convenience: `nodes` identical nodes with `cpus_per_node` CPUs each.
  [[nodiscard]] static Machine homogeneous(int nodes, int cpus_per_node,
                                           double cpu_speed = 1.0,
                                           NetworkSpec network = {});

  /// Append a group of identical nodes (heterogeneous machines are built
  /// from several groups). Throws std::invalid_argument on non-positive
  /// counts or speed.
  Machine& add_nodes(int node_count, int cpus_per_node, double cpu_speed,
                     std::string cpu_name = {});

  [[nodiscard]] int node_count() const noexcept;
  [[nodiscard]] int total_cpus() const noexcept;

  /// Node index hosting this rank (node-major layout). Throws
  /// std::out_of_range for an invalid rank.
  [[nodiscard]] int node_of_rank(int rank) const;

  /// Relative speed of the CPU hosting this rank.
  [[nodiscard]] double rank_speed(int rank) const;

  /// One node of the layout: it hosts ranks [first_rank, first_rank + cpus).
  struct ResolvedNode {
    int first_rank;
    int cpus;
    double speed;
    std::size_t group;
  };

  /// Every node in rank order, for loops over all ranks that would otherwise
  /// search for each rank's node.
  [[nodiscard]] const std::vector<ResolvedNode>& nodes() const noexcept {
    return nodes_;
  }

  /// The node groups in the order they were added: the machine's node
  /// layout as runs of identical nodes.
  [[nodiscard]] const std::vector<NodeGroup>& groups() const noexcept {
    return groups_;
  }

  /// CPU family name for this rank (may be empty).
  [[nodiscard]] const std::string& rank_cpu_name(int rank) const;

  [[nodiscard]] bool same_node(int rank_a, int rank_b) const {
    return node_of_rank(rank_a) == node_of_rank(rank_b);
  }

  [[nodiscard]] const NetworkSpec& network() const noexcept { return network_; }

  /// Slowest relative CPU speed across the whole machine.
  [[nodiscard]] double min_speed() const;

  /// True when every CPU has the same relative speed.
  [[nodiscard]] bool is_homogeneous() const;

 private:
  void rebuild_index();

  NetworkSpec network_;
  std::vector<NodeGroup> groups_;
  std::vector<ResolvedNode> nodes_;
  int total_cpus_ = 0;
};

}  // namespace simcluster
