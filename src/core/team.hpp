// Thread groups (thesis Chapter 3).
//
// A Team is an ordered set of UPC ranks — typically all ranks sharing a
// hardware domain (node, socket), but arbitrary and *overlapping* groups
// are allowed (§3.2.1 argues for concurrent exploitation of multiple
// hierarchies). A Team IS the member set's gas::Collectives (the
// GASNet-teams facility of §3.2.1): members, member indices, the barrier
// and broadcast/reduce/exchange scoped to the members, with buffers
// indexed by member index. Team adds the topology factories and splits.
//
// Teams are plain shared objects: construct them (host-side or on one
// rank) before use and share by reference, the way the thesis programs
// hand-code thread groups from topology queries at startup.
#pragma once

#include <vector>

#include "gas/collectives.hpp"
#include "gas/gas.hpp"

namespace hupc::core {

class Team : public gas::Collectives {
 public:
  /// Team(rt) is the whole runtime; Team(rt, ranks, selector) takes
  /// non-empty, unique, in-range ranks in ANY order — member index is the
  /// position in `ranks` (split() emits key-ordered teams, so sortedness
  /// is not a Team invariant). The optional selector pins or tunes the
  /// per-operation algorithm choice (gas/coll_algo.hpp); subteams made by
  /// split* and leader_team() inherit it.
  using gas::Collectives::Collectives;

  // --- hardware-driven factories (the topology queries of §3.2.1) -------
  [[nodiscard]] static Team node_team(gas::Runtime& rt, int node);
  [[nodiscard]] static Team socket_team(gas::Runtime& rt, int node, int socket);
  /// One team per node, index = node id.
  [[nodiscard]] static std::vector<Team> all_node_teams(gas::Runtime& rt);

  // --- splitting (the MPI_Comm_split-shaped teams API of §3.2.1) --------

  /// Partition this team by color: member i joins the subteam of every
  /// other member with `colors[i]`; a negative color joins no team. Within
  /// a subteam, members are ordered by ascending (`keys[i]`, parent member
  /// index) — so subteam member 0 is the smallest key, NOT necessarily the
  /// smallest global rank. Returns the subteams in ascending color order.
  /// `colors` (and `keys`, when non-empty) must have exactly size()
  /// entries; omitted keys default to 0 (order by parent member index).
  [[nodiscard]] std::vector<Team> split(const std::vector<int>& colors,
                                        const std::vector<int>& keys = {}) const;

  /// One subteam per node this team touches, in ascending node order;
  /// members keep their parent order.
  [[nodiscard]] std::vector<Team> split_by_node() const;

  /// split() with color = (node, socket) of each member, ascending.
  [[nodiscard]] std::vector<Team> split_by_socket() const;

  /// Cross-node leaders subteam: the first member (lowest member index) on
  /// each node this team touches, in ascending node order — the "one
  /// representative per supernode" team the two-level collective
  /// algorithms route through.
  [[nodiscard]] Team leader_team() const;

  /// Pre-cast pointer table (§3.3): raw base pointers of each member's
  /// slice of `arr`, nullptr where not castable from `self`. Building it
  /// is free at runtime scale — the expensive mapping happened at startup.
  template <class T>
  [[nodiscard]] std::vector<T*> pointer_table(const gas::Thread& self,
                                              const gas::SharedArray<T>& arr) const {
    std::vector<T*> table;
    table.reserve(members().size());
    for (int r : members()) {
      table.push_back(self.castable(r) ? arr.slice(r) : nullptr);
    }
    return table;
  }

 private:
  /// The subteam of the given member indices, in that order.
  [[nodiscard]] Team subteam(const std::vector<int>& idxs) const;
};

}  // namespace hupc::core
