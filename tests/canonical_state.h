#ifndef HERMES_TESTS_CANONICAL_STATE_H_
#define HERMES_TESTS_CANONICAL_STATE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graphdb/graph_store.h"

/// Canonical state: a record-id- and order-insensitive image of a
/// GraphStore (property chains prepend, so dump order is not stable
/// across a snapshot round-trip). The crash-torture harness and the
/// snapshot round-trip tests compare stores through it.

namespace hermes::test {


using Props = std::vector<std::pair<std::uint32_t, std::string>>;
using CanonicalNodes =
    std::map<VertexId, std::tuple<double, int, Props>>;
// The linkage bits matter: a half record left by RemoveNode and a
// full edge look identical by endpoints alone but answer Neighbors()
// differently on the unlinked side.
using CanonicalRels =
    std::map<std::pair<VertexId, VertexId>,
             std::tuple<std::uint32_t, bool, bool, bool, Props>>;
using CanonicalState = std::pair<CanonicalNodes, CanonicalRels>;

inline CanonicalState Canonicalize(const GraphStore& store) {
  CanonicalState out;
  for (const auto& n : store.DumpNodes()) {
    Props props = n.properties;
    std::sort(props.begin(), props.end());
    out.first[n.id] = {n.weight, static_cast<int>(n.state),
                       std::move(props)};
  }
  for (const auto& r : store.DumpRelationships()) {
    Props props = r.properties;
    std::sort(props.begin(), props.end());
    out.second[{r.src, r.dst}] = {r.type, r.ghost, r.src_linked,
                                  r.dst_linked, std::move(props)};
  }
  return out;
}

// Human-readable difference between two canonical states, for failure
// messages (empty when equal).
inline std::string DiffStates(const CanonicalState& got,
                              const CanonicalState& want) {
  std::ostringstream out;
  auto props_str = [](const Props& props) {
    std::string s = "{";
    for (const auto& [k, v] : props) {
      s += std::to_string(k) + ":" + v + ",";
    }
    return s + "}";
  };
  for (const auto& [id, node] : want.first) {
    if (!got.first.count(id)) {
      out << "missing node " << id << "\n";
    } else if (got.first.at(id) != node) {
      const auto& g = got.first.at(id);
      out << "node " << id << ": got (w=" << std::get<0>(g)
          << ",s=" << std::get<1>(g) << ",p=" << props_str(std::get<2>(g))
          << ") want (w=" << std::get<0>(node) << ",s=" << std::get<1>(node)
          << ",p=" << props_str(std::get<2>(node)) << ")\n";
    }
  }
  for (const auto& [id, node] : got.first) {
    (void)node;
    if (!want.first.count(id)) out << "extra node " << id << "\n";
  }
  auto rel_str = [&](const std::tuple<std::uint32_t, bool, bool, bool,
                                      Props>& r) {
    std::ostringstream s;
    s << "(t=" << std::get<0>(r) << ",ghost=" << std::get<1>(r)
      << ",src_linked=" << std::get<2>(r) << ",dst_linked=" << std::get<3>(r)
      << ",p=" << props_str(std::get<4>(r)) << ")";
    return s.str();
  };
  for (const auto& [key, rel] : want.second) {
    if (!got.second.count(key)) {
      out << "missing rel {" << key.first << "," << key.second << "} "
          << rel_str(rel) << "\n";
    } else if (got.second.at(key) != rel) {
      out << "rel {" << key.first << "," << key.second << "}: got "
          << rel_str(got.second.at(key)) << " want " << rel_str(rel) << "\n";
    }
  }
  for (const auto& [key, rel] : got.second) {
    if (!want.second.count(key)) {
      out << "extra rel {" << key.first << "," << key.second << "} "
          << rel_str(rel) << "\n";
    }
  }
  return out.str();
}

}  // namespace hermes::test

#endif  // HERMES_TESTS_CANONICAL_STATE_H_
