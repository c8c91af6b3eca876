// durable_server: the persistence engine under a crash.
//
// Hermes inherits Neo4j's disk-based, transactional persistence. This
// example runs one server's store through a realistic life cycle:
// load -> checkpoint -> more traffic -> crash (no clean shutdown) ->
// recovery from snapshot + write-ahead-log tail.
//
// Run: ./build/examples/durable_server

#include <cstdio>
#include <filesystem>

#include "common/logging.h"
#include "common/rng.h"
#include "gen/social_graph.h"
#include "graphdb/durable_store.h"

using namespace hermes;

int main() {
  SetLogLevel(LogLevel::kWarning);
  const std::string dir = "/tmp/hermes_durable_demo";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  SocialGraphOptions gopt;
  gopt.num_vertices = 800;
  gopt.seed = 77;
  const Graph g = GenerateSocialGraph(gopt);

  std::size_t edges_before_crash = 0;
  {
    auto opened = DurableGraphStore::Open(0, dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    DurableGraphStore& db = **opened;

    std::printf("Loading %zu users and %zu friendships (all WAL-logged)...\n",
                g.NumVertices(), g.NumEdges());
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      HERMES_CHECK_OK(db.CreateNode(v, g.VertexWeight(v)));
    }
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      for (VertexId w : g.Neighbors(v)) {
        if (w > v) HERMES_CHECK_OK(db.AddEdge(v, w, 0, true).status());
      }
    }
    HERMES_CHECK_OK(db.SetNodeProperty(0, 0, "the-first-user"));

    std::printf("Checkpoint: snapshot written, log truncated.\n");
    if (!db.Checkpoint().ok()) return 1;

    // Post-checkpoint traffic that only the WAL protects.
    Rng rng(5);
    std::size_t added = 0;
    for (int i = 0; i < 200; ++i) {
      const VertexId u = rng.Uniform(g.NumVertices());
      const VertexId v = rng.Uniform(g.NumVertices());
      if (u != v && db.AddEdge(u, v, 1, true).ok()) ++added;
    }
    // The post-crash durability claim below depends on this fsync.
    if (const Status st = db.Sync(); !st.ok()) {
      std::fprintf(stderr, "sync failed: %s\n", st.ToString().c_str());
      return 1;
    }
    edges_before_crash = db.store().NumRelationships();
    std::printf("Post-checkpoint: %zu new friendships (WAL only, next "
                "LSN=%llu)\n",
                added, static_cast<unsigned long long>(db.next_lsn()));
    std::printf("CRASH: process exits without checkpoint or shutdown.\n");
    // db goes out of scope without Checkpoint() — like a kill -9 after
    // the last Sync().
  }

  std::printf("\nRecovering from %s ...\n", dir.c_str());
  auto recovered = DurableGraphStore::Open(0, dir);
  if (!recovered.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 recovered.status().ToString().c_str());
    return 1;
  }
  const GraphStore& store = (*recovered)->store();
  std::printf("  nodes: %zu (expected %zu)\n", store.NumNodes(),
              g.NumVertices());
  std::printf("  relationships: %zu (expected %zu)\n",
              store.NumRelationships(), edges_before_crash);
  std::printf("  property check: %s\n",
              store.GetNodeProperty(0, 0).ValueOr("<missing>").c_str());
  std::printf("  chain integrity: %s\n",
              store.CheckLinks() ? "OK" : "FAILED");
  const bool ok = store.NumNodes() == g.NumVertices() &&
                  store.NumRelationships() == edges_before_crash &&
                  store.CheckLinks();
  std::printf("\n%s\n", ok ? "Recovery complete — no committed write lost."
                           : "RECOVERY MISMATCH");
  return ok ? 0 : 1;
}
