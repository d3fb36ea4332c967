// Placement — study-to-instance assignment for a horizontal StudyService
// fleet: a consistent-hash ring with virtual nodes over a static roster of
// fedtune_studyd instances, mapping every study name to a (primary,
// follower) pair.
//
// Roster: a text file of `ID HOST:PORT` lines ('#' comments and blank lines
// skipped), the same static-membership model as the auth table — membership
// changes are a config push + restart, not a consensus protocol. Every
// instance and every client loads the same file, so placement is computed
// locally and identically everywhere; there is no placement service to
// fail.
//
// Ring: each member contributes `vnodes` points at
// mix64(fnv1a64(id + "#" + k)) — FNV-1a for the stable byte hash, a
// splitmix64-style avalanche finalizer because raw FNV on short keys is
// badly non-uniform in the high bits the ring sorts by. A study hashes to
// mix64(fnv1a64(name)) and its primary is
// the owner of the first ring point clockwise of that hash. The follower is
// the next *distinct* member clockwise — with >= 2 members, primary !=
// follower always. Virtual nodes smooth the load split (a handful of
// members with one point each can land arbitrarily lopsided; 64 points per
// member keeps the spread within a few percent).
//
// Properties the tests pin down:
//   - deterministic: same roster bytes -> same assignment, regardless of
//     the order lines appear in the file;
//   - stable: adding a member moves only the studies that hash into its new
//     arcs (the consistent-hashing contract), so a roster grown by one node
//     does not reshuffle the fleet;
//   - follower != primary whenever the roster has >= 2 members.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/env.hpp"
#include "common/fnv1a.hpp"

namespace fedtune::cluster {

struct ClusterMember {
  std::string id;
  std::string host;
  std::uint16_t port = 0;

  std::string endpoint() const {
    return host + ":" + std::to_string(port);
  }
  bool operator==(const ClusterMember& o) const {
    return id == o.id && host == o.host && port == o.port;
  }
};

// The static membership list. Members are kept sorted by id so every loader
// of the same file sees the identical roster regardless of line order.
class Roster {
 public:
  Roster() = default;
  explicit Roster(std::vector<ClusterMember> members);

  // Loads `ID HOST:PORT` lines. Throws std::invalid_argument on unreadable
  // files, malformed lines, bad ports, or duplicate ids.
  static Roster load(const std::string& path, Env* env = nullptr);
  // Same grammar, from an in-memory string (tests).
  static Roster parse(std::string_view text, const std::string& origin);

  const std::vector<ClusterMember>& members() const { return members_; }
  std::size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }
  const ClusterMember* find(std::string_view id) const;

 private:
  std::vector<ClusterMember> members_;  // sorted by id, unique
};

// The (primary, follower) pair a study is placed on. follower is nullopt on
// a single-member roster.
struct StudyPlacement {
  ClusterMember primary;
  std::optional<ClusterMember> follower;
};

class Placement {
 public:
  explicit Placement(Roster roster, std::size_t vnodes_per_member = 64);

  const Roster& roster() const { return roster_; }

  StudyPlacement place(std::string_view study) const;
  ClusterMember primary(std::string_view study) const;

  // The peer `self_id` should replicate `study`'s journal to: the follower
  // when self is the primary, otherwise the primary (a study created on an
  // off-placement member still gets a second copy on its rightful owner).
  // nullopt when the roster has no other member.
  std::optional<ClusterMember> replica_target(std::string_view study,
                                              std::string_view self_id) const;

 private:
  Roster roster_;
  // (point, index into roster_.members()), sorted by point; ties broken by
  // member index so equal hashes cannot make two loaders disagree.
  std::vector<std::pair<std::uint64_t, std::size_t>> ring_;
};

}  // namespace fedtune::cluster
