// In-memory and durable partition servers agree (DESIGN.md §12): the
// same request stream — one-entry and batched mutations, install
// chunks, counted reads and read-count folds, including requests the
// store rejects — is sent to one server of each kind, and every reply
// and the final store contents must match. Both kinds apply a mutation
// through one path (PartitionServer::ApplyLocked); the durable one
// prechecks the entry and logs it first, so this pins that the precheck
// still mirrors the store's rejection rules. The durable server is then
// reopened from its directory: replaying its log must rebuild the same
// store.

#include <cstddef>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "common/logging.h"
#include "net/bus.h"
#include "net/inproc_transport.h"
#include "net/message.h"
#include "server/partition_server.h"

namespace hermes {
namespace {

using Op = MutateRequest::Op;

MutateRequest One(MutateRequest::Entry entry) {
  return {.entries = {std::move(entry)}};
}

std::string FreshDir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// One partition server (endpoint 0) and a client bus (endpoint 1) on a
/// transport of their own, torn down in the cluster's order: bus, then
/// transport (joining the dispatcher), then the server. `opened` is the
/// server's Open() status (a durable store that fails to recover).
struct Side {
  explicit Side(PartitionServer::Options options) {
    auto server_or =
        PartitionServer::Open(0, 0, &transport, std::move(options));
    opened = server_or.status();
    if (!opened.ok()) return;
    server = std::move(*server_or);
    HERMES_CHECK(bus.Start().ok());
  }
  ~Side() {
    bus.Shutdown();
    transport.Shutdown();
  }

  MessagePayload Call(MessagePayload payload) {
    Envelope request;
    request.payload = std::move(payload);
    Result<Envelope> reply = bus.Call(0, std::move(request));
    HERMES_CHECK(reply.ok());
    return std::move(reply->payload);
  }

  InProcTransport transport{InProcTransport::Options{}};
  Status opened;
  std::unique_ptr<PartitionServer> server;
  MessageBus bus{&transport, 1, MessageBus::Options{}};
};

StatusCode CodeOf(const MessagePayload& reply) {
  return std::visit(
      [](const auto& r) {
        if constexpr (requires { r.status; }) return r.status.code();
        return StatusCode::kInternal;  // a request is no reply
      },
      reply);
}

void ExpectSameReply(const MessagePayload& memory,
                     const MessagePayload& durable) {
  ASSERT_EQ(memory.index(), durable.index());
  EXPECT_EQ(CodeOf(memory), CodeOf(durable));
  if (const auto* m = std::get_if<MutateReply>(&memory)) {
    EXPECT_EQ(m->record_id, std::get<MutateReply>(durable).record_id);
    EXPECT_EQ(m->applied, std::get<MutateReply>(durable).applied);
  } else if (const auto* m = std::get_if<InstallChunkReply>(&memory)) {
    const auto& d = std::get<InstallChunkReply>(durable);
    EXPECT_EQ(m->nodes_created, d.nodes_created);
    EXPECT_EQ(m->edges_created, d.edges_created);
  } else if (const auto* m = std::get_if<AuxExchangeReply>(&memory)) {
    const auto& d = std::get<AuxExchangeReply>(durable);
    ASSERT_EQ(m->folded.size(), d.folded.size());
    for (std::size_t i = 0; i < m->folded.size(); ++i) {
      EXPECT_EQ(m->folded[i].vertex, d.folded[i].vertex);
      EXPECT_EQ(m->folded[i].reads, d.folded[i].reads);
    }
  } else if (const auto* m = std::get_if<NeighborsReply>(&memory)) {
    const auto& d = std::get<NeighborsReply>(durable);
    ASSERT_EQ(m->results.size(), d.results.size());
    for (std::size_t i = 0; i < m->results.size(); ++i) {
      EXPECT_EQ(m->results[i].status.code(), d.results[i].status.code());
      EXPECT_EQ(m->results[i].neighbors, d.results[i].neighbors);
    }
  } else {
    ADD_FAILURE() << "unexpected reply type " << memory.index();
  }
}

void ExpectSameDump(const MessagePayload& memory,
                    const MessagePayload& durable) {
  const auto& m = std::get<DumpReply>(memory);
  const auto& d = std::get<DumpReply>(durable);
  ASSERT_OK(m.status);
  ASSERT_OK(d.status);
  ASSERT_EQ(m.nodes.size(), d.nodes.size());
  for (std::size_t i = 0; i < m.nodes.size(); ++i) {
    EXPECT_EQ(m.nodes[i].id, d.nodes[i].id);
    EXPECT_EQ(m.nodes[i].weight, d.nodes[i].weight) << "node " << m.nodes[i].id;
  }
  ASSERT_EQ(m.rels.size(), d.rels.size());
  for (std::size_t i = 0; i < m.rels.size(); ++i) {
    EXPECT_EQ(m.rels[i].src, d.rels[i].src);
    EXPECT_EQ(m.rels[i].dst, d.rels[i].dst);
    EXPECT_EQ(m.rels[i].type, d.rels[i].type);
    EXPECT_EQ(m.rels[i].ghost, d.rels[i].ghost);
  }
}

struct Step {
  MessagePayload request;
  StatusCode expect;  // what both kinds must answer
};

std::vector<Step> RequestStream() {
  constexpr auto kOk = StatusCode::kOk;
  InstallChunkRequest chunk;
  chunk.nodes = {{4, 1.5, {{1, "n4"}}}, {5, 1.0, {}}};
  chunk.edges = {
      {4, 5, 2, true, true, {{3, "e45"}}},
      {5, 4, 2, true, false, {}},           // co-installed: already there
      {4, 1, 0, true, false, {}},
      {5, 0, 0, false, true, {{1, "g"}}}};  // ghost copy refuses the property
  InstallChunkRequest clash;
  clash.nodes = {{6, 1.0, {}}, {1, 1.0, {}}, {7, 1.0, {}}};  // 1 exists
  return {
      {One({.op = Op::kCreateNode, .vertex = 1, .weight = 1.0}), kOk},
      {One({.op = Op::kCreateNode, .vertex = 2, .weight = 2.0}), kOk},
      {One({.op = Op::kCreateNode, .vertex = 3, .weight = 1.0}), kOk},
      {One({.op = Op::kCreateNode, .vertex = 1, .weight = 1.0}),
       StatusCode::kAlreadyExists},
      // A batch applies in order and stops at its first failure: the
      // bump lands, 9 does not exist, and the last entry never runs.
      {MutateRequest{
           .entries = {{.op = Op::kAddNodeWeight, .vertex = 1, .weight = 0.5},
                       {.op = Op::kRemoveNode, .vertex = 9},
                       {.op = Op::kAddNodeWeight, .vertex = 2, .weight = 1.0}}},
       StatusCode::kNotFound},
      {One({.op = Op::kAddEdge,
            .vertex = 1,
            .other = 2,
            .other_is_local = true}),
       kOk},
      // Duplicate edge, from either endpoint.
      {One({.op = Op::kAddEdge,
            .vertex = 1,
            .other = 2,
            .other_is_local = true}),
       StatusCode::kAlreadyExists},
      {One({.op = Op::kAddEdge,
            .vertex = 2,
            .other = 1,
            .other_is_local = true}),
       StatusCode::kAlreadyExists},
      // Self-loop.
      {One({.op = Op::kAddEdge,
            .vertex = 3,
            .other = 3,
            .other_is_local = true}),
       StatusCode::kInvalidArgument},
      // Missing nodes, as the writer and as the claimed-local other end.
      {One({.op = Op::kAddEdge, .vertex = 9, .other = 1}),
       StatusCode::kNotFound},
      {One({.op = Op::kAddEdge,
            .vertex = 1,
            .other = 9,
            .other_is_local = true}),
       StatusCode::kNotFound},
      {One({.op = Op::kAddNodeWeight, .vertex = 9, .weight = 1.0}),
       StatusCode::kNotFound},
      {One({.op = Op::kRemoveNode, .vertex = 9}),
       StatusCode::kNotFound},
      {One({.op = Op::kSetNodeState,
                     .vertex = 9,
                     .node_state = WireNodeState::kUnavailable}),
       StatusCode::kNotFound},
      {One({.op = Op::kSetNodeProperty,
                     .vertex = 9,
                     .type_or_key = 2,
                     .value = "x"}),
       StatusCode::kNotFound},
      {One({.op = Op::kRemoveEdge, .vertex = 1, .other = 3}),
       StatusCode::kNotFound},
      // Half records: 3 owns the copy of {3, 7}, and {3, 0} is the ghost.
      {One({.op = Op::kAddEdge, .vertex = 3, .other = 7}), kOk},
      {One({.op = Op::kAddEdge, .vertex = 3, .other = 0}), kOk},
      {One({.op = Op::kSetEdgeProperty,
                     .vertex = 3,
                     .other = 0,
                     .type_or_key = 1,
                     .value = "x"}),
       StatusCode::kInvalidArgument},
      {One({.op = Op::kSetEdgeProperty,
                     .vertex = 3,
                     .other = 7,
                     .type_or_key = 1,
                     .value = "w"}),
       kOk},
      {One({.op = Op::kSetEdgeProperty,
                     .vertex = 4,
                     .other = 5,
                     .type_or_key = 1,
                     .value = "w"}),
       StatusCode::kNotFound},
      {One({.op = Op::kSetNodeProperty,
                     .vertex = 1,
                     .type_or_key = 2,
                     .value = "alice"}),
       kOk},
      // Writes to an unavailable (mid-migration) endpoint, either end.
      {One({.op = Op::kSetNodeState,
                     .vertex = 2,
                     .node_state = WireNodeState::kUnavailable}),
       kOk},
      {One({.op = Op::kAddEdge,
            .vertex = 2,
            .other = 3,
            .other_is_local = true}),
       StatusCode::kUnavailable},
      {One({.op = Op::kAddEdge,
            .vertex = 3,
            .other = 2,
            .other_is_local = true}),
       StatusCode::kUnavailable},
      {One({.op = Op::kSetNodeState,
                     .vertex = 2,
                     .node_state = WireNodeState::kAvailable}),
       kOk},
      {One({.op = Op::kAddEdge,
            .vertex = 2,
            .other = 3,
            .other_is_local = true}),
       kOk},
      {chunk, kOk},
      {clash, StatusCode::kAlreadyExists},
      // Counted reads, then the fold that adds them to the weights.
      {NeighborsRequest{.vertices = {1, 3, 2}, .count_reads = true}, kOk},
      {NeighborsRequest{.vertices = {1}, .count_reads = true}, kOk},
      {AuxExchangeRequest{}, kOk},
      {One({.op = Op::kRemoveEdge, .vertex = 1, .other = 2}), kOk},
      // Removing 3 degrades {2, 3} to 2's half record; re-creating 3 and
      // adding the edge from it upgrades that record back to a full one.
      {One({.op = Op::kRemoveNode, .vertex = 3}), kOk},
      {One({.op = Op::kAddEdge, .vertex = 2, .other = 3}),
       StatusCode::kAlreadyExists},
      {One({.op = Op::kCreateNode, .vertex = 3, .weight = 1.0}), kOk},
      {One({.op = Op::kAddEdge,
            .vertex = 3,
            .other = 2,
            .other_is_local = true}),
       kOk},
      {AuxExchangeRequest{}, kOk},
  };
}

TEST(PartitionServerTest, InMemoryAndDurableServersAgree) {
  PartitionServer::Options durable_options;
  durable_options.durability_dir = FreshDir("partition_server_differential");
  Side memory(PartitionServer::Options{});
  auto durable = std::make_unique<Side>(durable_options);
  ASSERT_OK(memory.opened);
  ASSERT_OK(durable->opened);

  const std::vector<Step> stream = RequestStream();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const MessagePayload want = memory.Call(stream[i].request);
    const MessagePayload got = durable->Call(stream[i].request);
    EXPECT_EQ(CodeOf(want), stream[i].expect);
    ExpectSameReply(want, got);
  }
  ExpectSameDump(memory.Call(DumpRequest{}), durable->Call(DumpRequest{}));

  // No checkpoint was taken: the reopened store is the log's replay.
  durable.reset();
  Side reopened(durable_options);
  ASSERT_OK(reopened.opened);
  ExpectSameDump(memory.Call(DumpRequest{}), reopened.Call(DumpRequest{}));
}

}  // namespace
}  // namespace hermes
