package trajcover

// Streaming service values: ServiceValuesStreamCtx (querier.go, so on
// both index types) yields per-facility results chunk by chunk instead
// of materializing the whole batch, bit-identical to the batch answer
// over the same facility list. An Index captures its epoch set once
// before the first chunk: one stream answers from one write-consistent
// cut even while writes land concurrently.

// StreamVisitor receives one chunk of streamed service values:
// vals[i] is the service value of facilities[start+i]. Chunks arrive
// in facility order. Returning a non-nil error aborts the stream and
// surfaces that error from ServiceValuesStreamCtx.
type StreamVisitor func(start int, vals []float64) error
