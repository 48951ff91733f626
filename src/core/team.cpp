#include "core/team.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

namespace hupc::core {

Team Team::node_team(gas::Runtime& rt, int node) {
  std::vector<int> members;
  for (int r = 0; r < rt.threads(); ++r) {
    if (rt.node_of(r) == node) members.push_back(r);
  }
  return Team(rt, std::move(members));
}

Team Team::socket_team(gas::Runtime& rt, int node, int socket) {
  std::vector<int> members;
  for (int r = 0; r < rt.threads(); ++r) {
    const auto loc = rt.loc_of(r);
    if (loc.node == node && loc.socket == socket) members.push_back(r);
  }
  return Team(rt, std::move(members));
}

std::vector<Team> Team::all_node_teams(gas::Runtime& rt) {
  std::vector<Team> teams;
  teams.reserve(static_cast<std::size_t>(rt.nodes_used()));
  for (int n = 0; n < rt.nodes_used(); ++n) {
    teams.push_back(node_team(rt, n));
  }
  return teams;
}

std::vector<Team> Team::split(const std::vector<int>& colors,
                              const std::vector<int>& keys) const {
  const auto n = static_cast<std::size_t>(size());
  if (colors.size() != n) {
    throw std::invalid_argument("Team::split: one color per member required");
  }
  if (!keys.empty() && keys.size() != n) {
    throw std::invalid_argument(
        "Team::split: keys must be empty or one per member");
  }
  // color -> [(key, parent member index)], std::map for ascending color.
  std::map<int, std::vector<std::pair<int, int>>> buckets;
  for (std::size_t i = 0; i < n; ++i) {
    if (colors[i] < 0) continue;  // negative color: joins no subteam
    buckets[colors[i]].emplace_back(keys.empty() ? 0 : keys[i],
                                    static_cast<int>(i));
  }
  std::vector<Team> teams;
  teams.reserve(buckets.size());
  for (auto& [color, keyed] : buckets) {
    (void)color;
    std::sort(keyed.begin(), keyed.end());  // (key, parent member index)
    std::vector<int> idxs;
    idxs.reserve(keyed.size());
    for (const auto& [key, idx] : keyed) {
      (void)key;
      idxs.push_back(idx);
    }
    teams.push_back(subteam(idxs));
  }
  return teams;
}

std::vector<Team> Team::split_by_node() const {
  std::vector<Team> teams;
  teams.reserve(groups().size());
  for (const auto& idxs : groups()) teams.push_back(subteam(idxs));
  return teams;
}

std::vector<Team> Team::split_by_socket() const {
  // Color = dense index of the (node, socket) pair, ascending.
  std::map<std::pair<int, int>, int> domain_color;
  for (int r : members()) {
    const auto loc = runtime().loc_of(r);
    domain_color.emplace(std::make_pair(loc.node, loc.socket), 0);
  }
  int next = 0;
  for (auto& [domain, color] : domain_color) {
    (void)domain;
    color = next++;
  }
  std::vector<int> colors;
  colors.reserve(members().size());
  for (int r : members()) {
    const auto loc = runtime().loc_of(r);
    colors.push_back(domain_color.at({loc.node, loc.socket}));
  }
  return split(colors);
}

Team Team::leader_team() const {
  std::vector<int> leaders;
  leaders.reserve(groups().size());
  for (const auto& idxs : groups()) leaders.push_back(idxs.front());
  return subteam(leaders);
}

Team Team::subteam(const std::vector<int>& idxs) const {
  std::vector<int> ranks;
  ranks.reserve(idxs.size());
  for (int i : idxs) ranks.push_back(members()[static_cast<std::size_t>(i)]);
  return Team(runtime(), std::move(ranks), selector());
}

}  // namespace hupc::core
