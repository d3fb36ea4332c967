#include "cluster/placement.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/check.hpp"

namespace fedtune::cluster {

namespace {

// FNV-1a's output on short keys ("a#12", study names) is far from uniform
// in the high bits, and the ring orders points by exactly those bits — raw
// FNV arcs can leave one member owning half the ring. A splitmix64-style
// avalanche finalizer spreads every input bit over the whole word; ring
// points and study hashes both pass through it.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

std::uint64_t ring_hash(std::string_view key) { return mix64(fnv1a64(key)); }

}  // namespace

Roster::Roster(std::vector<ClusterMember> members)
    : members_(std::move(members)) {
  std::sort(members_.begin(), members_.end(),
            [](const ClusterMember& a, const ClusterMember& b) {
              return a.id < b.id;
            });
  for (std::size_t i = 1; i < members_.size(); ++i) {
    if (members_[i].id == members_[i - 1].id) {
      throw std::invalid_argument("duplicate roster id '" + members_[i].id +
                                  "'");
    }
  }
}

Roster Roster::parse(std::string_view text, const std::string& origin) {
  std::vector<ClusterMember> members;
  std::istringstream in{std::string(text)};
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream fields(line);
    std::string id, endpoint, extra;
    if (!(fields >> id)) continue;  // blank line
    if (id[0] == '#') continue;
    const std::string where =
        "roster line " + std::to_string(lineno) + " in '" + origin + "'";
    if (!(fields >> endpoint) || (fields >> extra)) {
      throw std::invalid_argument("malformed " + where +
                                  " (want: ID HOST:PORT)");
    }
    const std::size_t colon = endpoint.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == endpoint.size()) {
      throw std::invalid_argument("bad endpoint '" + endpoint + "' at " +
                                  where + " (want HOST:PORT)");
    }
    const std::string port_str = endpoint.substr(colon + 1);
    long port = -1;
    try {
      std::size_t used = 0;
      port = std::stol(port_str, &used);
      if (used != port_str.size()) port = -1;
    } catch (const std::exception&) {
      port = -1;
    }
    if (port < 0 || port > 65535) {
      throw std::invalid_argument("bad port '" + port_str + "' at " + where);
    }
    ClusterMember m;
    m.id = id;
    m.host = endpoint.substr(0, colon);
    m.port = static_cast<std::uint16_t>(port);
    members.push_back(std::move(m));
  }
  return Roster(std::move(members));
}

Roster Roster::load(const std::string& path, Env* env) {
  Env& e = env_or_real(env);
  if (!e.exists(path)) {
    throw std::invalid_argument("cannot read cluster file '" + path + "'");
  }
  return parse(e.read_file(path), path);
}

const ClusterMember* Roster::find(std::string_view id) const {
  for (const ClusterMember& m : members_) {
    if (m.id == id) return &m;
  }
  return nullptr;
}

Placement::Placement(Roster roster, std::size_t vnodes_per_member)
    : roster_(std::move(roster)) {
  FEDTUNE_CHECK(vnodes_per_member > 0);
  ring_.reserve(roster_.size() * vnodes_per_member);
  for (std::size_t i = 0; i < roster_.size(); ++i) {
    const std::string& id = roster_.members()[i].id;
    for (std::size_t k = 0; k < vnodes_per_member; ++k) {
      ring_.emplace_back(ring_hash(id + "#" + std::to_string(k)), i);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

StudyPlacement Placement::place(std::string_view study) const {
  FEDTUNE_CHECK_MSG(!ring_.empty(), "placement over an empty roster");
  const std::uint64_t h = ring_hash(study);
  // First ring point clockwise of the study's hash (wrapping).
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(),
      std::make_pair(h, static_cast<std::size_t>(0)));
  if (it == ring_.end()) it = ring_.begin();
  StudyPlacement out;
  out.primary = roster_.members()[it->second];
  // Follower: next distinct member clockwise.
  const std::size_t primary_idx = it->second;
  for (std::size_t step = 1; step < ring_.size(); ++step) {
    const auto& point =
        ring_[(static_cast<std::size_t>(it - ring_.begin()) + step) %
              ring_.size()];
    if (point.second != primary_idx) {
      out.follower = roster_.members()[point.second];
      break;
    }
  }
  return out;
}

ClusterMember Placement::primary(std::string_view study) const {
  return place(study).primary;
}

std::optional<ClusterMember> Placement::replica_target(
    std::string_view study, std::string_view self_id) const {
  const StudyPlacement p = place(study);
  if (p.primary.id != self_id) return p.primary;
  return p.follower;
}

}  // namespace fedtune::cluster
