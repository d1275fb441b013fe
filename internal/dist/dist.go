// Package dist is the multi-process serving tier over tqserve: shard
// groups of replicated backend processes behind a scatter-gather
// frontend, with the same exact-answer discipline as a single process.
//
// Topology. The corpus is partitioned across N shard groups by the
// same FNV-1a hash the in-process partitioner uses (RouteID), so a
// trajectory's owning group is a pure function of its ID. Each group
// is one primary tqserve (the write owner, WAL-backed) plus any number
// of replicas — read-only processes that bootstrap from the primary's
// GET /v1/snapshot and then follow its replication log over GET
// /v1/changes (see internal/replog). The frontend owns the group map:
// it forwards each write to its owner group's primary, scatters reads
// across the groups (any healthy member serves a read), and merges.
//
// Exactness across the wire. /v1/topk is NOT answered by merging
// per-group top-k lists — that would be wrong (a global winner can be
// mediocre in every group). Service value is additive over the groups'
// disjoint user sets, so the frontend does what every sharded index does
// in-process, with groups for shards: it sums every facility's exact
// per-group values in group order and sorts (query.Results). Answers are
// byte-identical to one process over the same corpus for integral
// scenarios (Binary), and equal up to float summation order otherwise. No
// bound crosses the wire: summed over hash-partitioned groups the seed
// bound never cut a facility (EXPERIMENTS.md), so every group evaluates
// every facility, once.
//
// The wire. Everything one read asks of one group is ONE frame each way
// on a persistent exchange connection (exchange.go here; the handshake,
// the frame layout and the backend half are internal/server/exchange.go):
// the frontend upgrades a connection to a member once, with POST
// /v1/exchange and Upgrade: tqexchange/1, keeps it in the member's pool,
// and sends each read a binary query frame carrying the query and all
// facilities as columns the backend aliases without parsing; the answer
// is one frame of float64 values, or an error frame carrying the HTTP
// answer the backend would have given. A connection carries one exchange
// at a time and is closed on any failure, so a late reply is never read
// as another exchange's. /v1/servicevalues and /v1/topk send the same
// frame; the only JSON a read touches is the client's own request and
// answer. A client that leaves ends its read's exchanges at once: the read
// expires their connections, which cancels each backend's frame. Writes
// and health probes stay HTTP and JSON, passed through on the frontend's
// own transport.
//
// The edge. The frontend and ReplicaHandler answer through
// internal/server's request edge (RequirePost, WriteJSON, RejectRetryable,
// RejectBody, RequestTimeout), so a bad request gets the same status,
// headers and bytes from every role; only the drain message's word
// ("frontend") is the frontend's own.
//
// One epoch per group. A group's whole contribution to an answer is one
// ServiceValuesCtx call on one member, hence one epoch capture: one
// acknowledged prefix of its write history. A member that fails — before
// answering, or with its reply half out — is failed over within its group
// (healthy members first; a 4xx aborts); there is no partial state to
// splice, so the next member is simply asked from the top.
//
// Degradation. Per-member health probes remove unresponsive backends
// and readmit them when they recover; a member that answered an exchange
// within the last probe interval is not probed, since the next read it
// fails removes it at once. When an entire group is unreachable
// the default answer is 503 with Retry-After (the frontend never silently
// narrows the corpus); a client that opts in with ?partial=1 instead gets
// 200 over the surviving groups plus a partial flag naming the missing
// ones: a group answers wholly or is missing. The tier is single-tenant:
// a request naming any tenant but the default is a 400.
package dist

import (
	"fmt"
	"strings"

	"github.com/trajcover/trajcover/internal/shard"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Group is one shard group: member base URLs, Members[0] the primary
// (the write owner and the replicas' bootstrap source).
type Group struct {
	Members []string
}

// ParseMap parses a backend map flag: comma-separated shard groups,
// each a |-separated list of member base URLs with the primary first.
//
//	http://a:8001|http://a:8002,http://b:8001
//
// is two shard groups, the first with one replica.
func ParseMap(s string) ([]Group, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("dist: empty backend map")
	}
	var groups []Group
	for gi, part := range strings.Split(s, ",") {
		var g Group
		for _, m := range strings.Split(part, "|") {
			m = strings.TrimSuffix(strings.TrimSpace(m), "/")
			if m == "" {
				return nil, fmt.Errorf("dist: group %d has an empty member", gi)
			}
			if !strings.HasPrefix(m, "http://") && !strings.HasPrefix(m, "https://") {
				return nil, fmt.Errorf("dist: member %q: want an http(s):// base URL", m)
			}
			g.Members = append(g.Members, m)
		}
		if len(g.Members) == 0 {
			return nil, fmt.Errorf("dist: group %d is empty", gi)
		}
		groups = append(groups, g)
	}
	return groups, nil
}

// RouteID maps a trajectory ID to its owning shard group: the in-process
// hash partitioner's shard (shard.HashID), so a corpus split across
// groups by RouteID partitions exactly like one process's hash-sharded
// index.
func RouteID(id uint32, n int) int { return shard.HashID(trajectory.ID(id), n) }
