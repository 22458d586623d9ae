package server

import (
	"encoding/json"
	"math"
	"strconv"

	"datanet/internal/elasticmap"
)

// The plan and distribution bodies are appended into one buffer rather
// than marshaled by reflection. Each keeps the bytes encoding/json gives
// its typed shape, field order included (TestResponseBytesMatchMapShapes
// and TestPlanBytesMatchMarshal pin them).

// appendString appends s as encoding/json encodes a string. A string of
// the printable ASCII json.Marshal leaves alone is quoted as it is; any
// other is handed to json.Marshal, so its escapes are encoding/json's by
// construction.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			blob, _ := json.Marshal(s) // a string always marshals
			return append(b, blob...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends a finite f as encoding/json encodes a float64: the
// shortest representation that round-trips, in exponent form below 1e-6
// and from 1e21 up, with a two-digit negative exponent trimmed to one
// ("1e-07" is written "1e-7").
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendPlan appends resp's JSON body, newline-terminated as marshal's. Its
// PerNode and every Blocks list must be non-nil: encoding/json writes a
// nil slice as null.
func appendPlan(b []byte, resp *PlanResponse) []byte {
	b = append(b, `{"epoch":`...)
	b = strconv.AppendUint(b, resp.Epoch, 10)
	b = append(b, `,"sub":`...)
	b = appendString(b, resp.Sub)
	b = append(b, `,"scheduler":`...)
	b = appendString(b, resp.Scheduler)
	b = append(b, `,"nodes":`...)
	b = strconv.AppendInt(b, int64(resp.Nodes), 10)
	b = append(b, `,"blocks":`...)
	b = strconv.AppendInt(b, int64(resp.Blocks), 10)
	b = append(b, `,"totalWeight":`...)
	b = strconv.AppendInt(b, resp.TotalWeight, 10)
	b = append(b, `,"avgLoad":`...)
	b = appendFloat(b, resp.AvgLoad)
	b = append(b, `,"maxLoad":`...)
	b = strconv.AppendInt(b, resp.MaxLoad, 10)
	b = append(b, `,"perNode":[`...)
	for i := range resp.PerNode {
		np := &resp.PerNode[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"node":`...)
		b = strconv.AppendInt(b, int64(np.Node), 10)
		b = append(b, `,"load":`...)
		b = strconv.AppendInt(b, np.Load, 10)
		b = append(b, `,"blocks":[`...)
		for k, j := range np.Blocks {
			if k > 0 {
				b = append(b, ',')
			}
			b = appendBlock(b, j)
		}
		b = append(b, "]}"...)
	}
	return append(b, "]}\n"...)
}

// appendBlock appends a block index in decimal, as strconv.AppendInt
// does. A plan body lists every block of the array, so indexes below 10⁴
// are written digit by digit.
func appendBlock(b []byte, j int32) []byte {
	switch {
	case j < 0 || j >= 10000:
		return strconv.AppendInt(b, int64(j), 10)
	case j < 10:
		return append(b, byte('0'+j))
	case j < 100:
		return append(b, byte('0'+j/10), byte('0'+j%10))
	case j < 1000:
		return append(b, byte('0'+j/100), byte('0'+j/10%10), byte('0'+j%10))
	}
	return append(b, byte('0'+j/1000), byte('0'+j/100%10), byte('0'+j/10%10), byte('0'+j%10))
}

// appendDistribution appends the /distribution body of sub at epoch: its
// per-block estimates as {"block","size","class"} rows, then the epoch and
// the sub, newline-terminated as marshal's. Class names are fixed ASCII.
func appendDistribution(b []byte, dist []elasticmap.BlockEstimate, epoch uint64, sub string) []byte {
	b = append(b, `{"blocks":[`...)
	for i, be := range dist {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"block":`...)
		b = strconv.AppendInt(b, int64(be.Block), 10)
		b = append(b, `,"size":`...)
		b = strconv.AppendInt(b, be.Size, 10)
		b = append(b, `,"class":"`...)
		b = append(b, be.Class.String()...)
		b = append(b, `"}`...)
	}
	b = append(b, `],"epoch":`...)
	b = strconv.AppendUint(b, epoch, 10)
	b = append(b, `,"sub":`...)
	b = appendString(b, sub)
	return append(b, "}\n"...)
}
