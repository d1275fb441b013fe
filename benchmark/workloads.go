package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/server"
)

// distinctBodies is how many different facility sets a workload cycles
// through: 1,024 routes at the paper's N=128. A window of the read-only
// workloads is a whole number of cycles, so every window does identical
// work, and in a 15 s phase every body is tried dozens of times, which is
// what client.req_best_ms needs.
const distinctBodies = 8

// churnWindowOps is churn_mix's window: 1,000 operations hold 500 writes,
// 250 to each shard, which is one background rebuild per shard at
// churnMaxDelta — so every window pays for the same rebuild work wherever
// in the cycle it starts.
const churnWindowOps = 1000

// spec describes one workload. The reasons it exists are in README.md and
// BENCHMARK.json.
type spec struct {
	name  string
	shape queryShape
	// windowOps is the operation count of one window, all clients
	// together.
	windowOps int
	// traceOps is the size of the traced sample.
	traceOps int
	setup    func(in *inputs, dir string, scale float64) (*stack, error)
	// reference returns the index whose direct TopK answers are the
	// expected response bodies; nil where answers are checked
	// structurally.
	reference func(in *inputs, st *stack) (*trajcover.LiveShardedIndex, error)
}

var (
	paperShape = queryShape{facilities: 128, stops: 32, k: 8}
	churnShape = queryShape{facilities: 16, stops: 16, k: 4}
)

var specs = []*spec{
	{
		name: "topk_scan", shape: paperShape, windowOps: distinctBodies, traceOps: 8 * distinctBodies,
		setup:     setupScan,
		reference: servedIndex,
	},
	{
		name: "hot_repeat", shape: paperShape, windowOps: 20 * distinctBodies, traceOps: 40 * distinctBodies,
		setup:     setupHot,
		reference: servedIndex,
	},
	{
		name: "churn_mix", shape: churnShape, windowOps: churnWindowOps, traceOps: 200,
		setup: setupChurn,
	},
	{
		name: "dist_topk", shape: paperShape, windowOps: distinctBodies, traceOps: 8 * distinctBodies,
		setup: setupDist,
		reference: func(in *inputs, _ *stack) (*trajcover.LiveShardedIndex, error) {
			// The single-process index topk_scan serves.
			return trajcover.NewLiveShardedIndex(in.users, liveOptions(indexShards, trajcover.LivePolicy{}))
		},
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

func servedIndex(_ *inputs, st *stack) (*trajcover.LiveShardedIndex, error) { return st.idx, nil }

// expectedAnswers computes each body's response bytes by calling the
// library directly, two bodies at a time.
func expectedAnswers(in *inputs, ref *trajcover.LiveShardedIndex) ([][]byte, error) {
	want := make([][]byte, len(in.facs))
	errs := make([]error, loadClients)
	var wg sync.WaitGroup
	for c := 0; c < loadClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(in.facs); i += loadClients {
				res, err := ref.TopK(in.facs[i], in.shape.k, in.query())
				if err != nil {
					errs[c] = err
					return
				}
				want[i] = server.MarshalTopKResponse(res)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return want, nil
}

// queryOps pairs every body with its answer check.
func queryOps(in *inputs, want [][]byte) []op {
	ops := make([]op, len(in.bodies))
	for i, body := range in.bodies {
		o := op{path: server.PathTopK, body: body, query: i}
		if want != nil {
			expect := want[i]
			o.check = func(answer []byte) error {
				if !bytes.Equal(answer, expect) {
					return fmt.Errorf("body %d: answer %.120s, want %.120s", i, answer, expect)
				}
				return nil
			}
		} else {
			k := in.shape.k
			o.check = func(answer []byte) error {
				var resp server.TopKResponse
				if err := json.Unmarshal(answer, &resp); err != nil {
					return err
				}
				if len(resp.Results) != k {
					return fmt.Errorf("body %d: %d results, want %d", i, len(resp.Results), k)
				}
				return nil
			}
		}
		ops[i] = o
	}
	return ops
}

// cycle is the read-only stream: the clients deal the query operations
// out between them round-robin, forever.
type cycle struct {
	ops  []op
	sent [loadClients]int
}

func (s *cycle) next(client int) op {
	i := s.sent[client]
	s.sent[client]++
	return s.ops[(i*loadClients+client)%len(s.ops)]
}

// churn is churn_mix's stream. Each client repeats the same ten-operation
// pattern — five queries, three inserts, two deletes — over its own ID
// ranges: it deletes original trajectories of its parity class in ID
// order, and inserts copies of original trajectories under fresh IDs.
// The per-client counters are the whole state, so the surviving corpus
// can be recomputed from them.
type churn struct {
	in      *inputs
	queries []op
	clients [loadClients]struct{ ops, queries, inserts, deletes int }
}

// churnPattern is one client's repeating operation mix.
var churnPattern = [10]byte{'q', 'i', 'q', 'd', 'q', 'i', 'q', 'i', 'q', 'd'}

func newChurn(in *inputs) *churn { return &churn{in: in} }

// insertID is the ID of client c's j-th insert, above every original ID.
func insertID(c, j int) trajcover.ID { return trajcover.ID(1<<30 + c<<28 + j) }

func (s *churn) insertAt(c, j int) *trajcover.Trajectory {
	src := s.in.users[(j*loadClients+c)%len(s.in.users)]
	u, err := trajcover.NewTrajectory(insertID(c, j), src.Points)
	if err != nil {
		panic(err) // src is a valid trajectory
	}
	return u
}

func (s *churn) nextInsert(c int) *trajcover.Trajectory {
	st := &s.clients[c]
	st.inserts++
	return s.insertAt(c, st.inserts-1)
}

func (s *churn) nextDelete(c int) trajcover.ID {
	st := &s.clients[c]
	id := st.deletes*loadClients + c
	if id >= len(s.in.users) {
		panic("benchmark: churn_mix deleted its whole corpus; shorten the run or raise -scale")
	}
	st.deletes++
	return trajcover.ID(id)
}

func (s *churn) next(c int) op {
	st := &s.clients[c]
	kind := churnPattern[st.ops%len(churnPattern)]
	st.ops++
	switch kind {
	case 'i':
		u := s.nextInsert(c)
		pts := make([][2]float64, len(u.Points))
		for i, p := range u.Points {
			pts[i] = [2]float64{p.X, p.Y}
		}
		return op{
			path: server.PathInsert, query: notQuery,
			body:  mustJSON(server.InsertRequest{ID: uint32(u.ID), Points: pts, TimeoutMS: requestTimeoutMS}),
			check: func([]byte) error { return nil }, // 200 is the ack
		}
	case 'd':
		id := s.nextDelete(c)
		return op{
			path: server.PathDelete, query: notQuery,
			body: mustJSON(server.DeleteRequest{ID: uint32(id), TimeoutMS: requestTimeoutMS}),
			check: func(answer []byte) error {
				var resp server.DeleteResponse
				if err := json.Unmarshal(answer, &resp); err != nil {
					return err
				}
				if !resp.Found {
					return fmt.Errorf("delete %d: not found", id)
				}
				return nil
			},
		}
	}
	st.queries++
	return s.queries[((st.queries-1)*loadClients+c)%len(s.queries)]
}

// survivors is the corpus the stream's history leaves: the originals not
// yet deleted plus every insert.
func (s *churn) survivors() []*trajcover.Trajectory {
	var out []*trajcover.Trajectory
	for _, u := range s.in.users {
		c := int(u.ID) % loadClients
		if int(u.ID)/loadClients >= s.clients[c].deletes {
			out = append(out, u)
		}
	}
	for c := range s.clients {
		for j := 0; j < s.clients[c].inserts; j++ {
			out = append(out, s.insertAt(c, j))
		}
	}
	return out
}

// verify checks the served index against a fresh build of the surviving
// corpus: same size, and the same bytes for the first query body.
func (s *churn) verify(st *stack, c *client) error {
	if err := st.idx.Err(); err != nil {
		return fmt.Errorf("background rebuild: %w", err)
	}
	fresh, err := trajcover.NewLiveShardedIndex(s.survivors(), liveOptions(indexShards, trajcover.LivePolicy{Manual: true}))
	if err != nil {
		return err
	}
	if got, want := st.idx.Len(), fresh.Len(); got != want {
		return fmt.Errorf("served corpus has %d trajectories, a fresh build of the survivors %d", got, want)
	}
	res, err := fresh.TopK(s.in.facs[0], s.in.shape.k, s.in.query())
	if err != nil {
		return err
	}
	want := server.MarshalTopKResponse(res)
	sm := c.do(op{path: server.PathTopK, body: s.in.bodies[0], check: func(answer []byte) error {
		if !bytes.Equal(answer, want) {
			return fmt.Errorf("after churn: answer %.120s, fresh build %.120s", answer, want)
		}
		return nil
	}})
	return sm.err
}
