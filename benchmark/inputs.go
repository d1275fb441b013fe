package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/server"
)

// paperUsers is the paper's NYT 1-day cardinality (Table III), the corpus
// every workload serves at -scale 1.
const paperUsers = 357139

// psi is the paper's default serving distance ψ in meters.
const psi = 300.0

// requestTimeoutMS is sent with every request and configured as every
// server-side deadline: far above any latency this benchmark sees, so a
// deadline never shapes a measurement and a hang still ends.
const requestTimeoutMS = 60_000

// queryShape is the facility-set shape of a workload's /v1/topk bodies.
type queryShape struct {
	facilities, stops, k int
}

// inputs is everything generated from the seed. The serving stack sees
// only these bytes: the corpus through the index constructors and the
// bodies through HTTP.
type inputs struct {
	users  []*trajcover.Trajectory
	shape  queryShape
	bodies [][]byte                // distinct /v1/topk bodies
	facs   [][]*trajcover.Facility // the facility set of each body
	sha    string                  // inputs_sha256
}

func corpusSize(scale float64) int {
	n := int(math.Round(paperUsers * scale))
	if n < 500 {
		n = 500
	}
	return n
}

// generate derives a workload's inputs from the seed alone.
func generate(seed int64, scale float64, shape queryShape, nBodies int) *inputs {
	city := trajcover.NewYorkCity()
	in := &inputs{users: trajcover.TaxiTrips(city, corpusSize(scale), seed), shape: shape}
	for i := 0; i < nBodies; i++ {
		facs := trajcover.BusRoutes(city, shape.facilities, shape.stops, seed+1+int64(i))
		in.facs = append(in.facs, facs)
		in.bodies = append(in.bodies, topKBody(facs, shape.k))
	}
	in.sha = in.digest()
	return in
}

func (in *inputs) query() trajcover.Query {
	return trajcover.Query{Scenario: trajcover.Binary, Psi: psi}
}

func topKBody(facs []*trajcover.Facility, k int) []byte {
	fjs := make([]server.FacilityJSON, len(facs))
	for i, f := range facs {
		stops := make([][2]float64, len(f.Stops))
		for j, st := range f.Stops {
			stops[j] = [2]float64{st.X, st.Y}
		}
		fjs[i] = server.FacilityJSON{ID: uint32(f.ID), Stops: stops}
	}
	return mustJSON(server.QueryRequest{Facilities: fjs, K: k, Psi: psi, Workers: 1, TimeoutMS: requestTimeoutMS})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("benchmark: marshal %T: %v", v, err))
	}
	return b
}

// digest hashes the corpus coordinates and the request bodies, so two
// runs can show they measured the same inputs.
func (in *inputs) digest() string {
	h := sha256.New()
	var buf [8]byte
	for _, u := range in.users {
		binary.LittleEndian.PutUint32(buf[:4], uint32(u.ID))
		h.Write(buf[:4])
		for _, p := range u.Points {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.X))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.Y))
			h.Write(buf[:])
		}
	}
	for _, b := range in.bodies {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
