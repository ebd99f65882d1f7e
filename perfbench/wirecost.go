package main

import (
	"encoding/json"
	"fmt"
	"time"

	"paydemand/internal/wire"
	"paydemand/internal/wire/binary"
)

// codecCost is the measured cost of one message in one codec.
type codecCost struct {
	encode time.Duration
	decode time.Duration
	bytes  int
}

// perOp times op in batches, doubling the batch until one takes at least
// a millisecond, and returns the median per-operation time of five such
// batches.
func perOp(op func() error) (time.Duration, error) {
	n := 16
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		if time.Since(start) >= time.Millisecond || n >= 1<<20 {
			break
		}
		n *= 2
	}
	per := make([]float64, 5)
	for b := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		per[b] = float64(time.Since(start)) / float64(n)
	}
	return time.Duration(median(per)), nil
}

// codecPair is one message's encode and decode in one codec. encode
// returns the encoding; decode parses data into a recycled message, as
// the client and server do.
type codecPair struct {
	encode func() ([]byte, error)
	decode func(data []byte) error
}

// measure times one message's encode and decode.
func (c codecPair) measure() (codecCost, error) {
	data, err := c.encode()
	if err != nil {
		return codecCost{}, err
	}
	data = append([]byte(nil), data...)
	enc, err := perOp(func() error { _, err := c.encode(); return err })
	if err != nil {
		return codecCost{}, err
	}
	dec, err := perOp(func() error { return c.decode(data) })
	if err != nil {
		return codecCost{}, err
	}
	return codecCost{encode: enc, decode: dec, bytes: len(data)}, nil
}

// wireCodecs returns the codec pairs of the three measured messages,
// keyed by codec then message name.
func wireCodecs(round *wire.RoundInfo, plan *wire.PlanResponse, submit *wire.SubmitRequest) map[string]map[string]codecPair {
	var (
		buf       []byte
		roundOut  wire.RoundInfo
		planOut   wire.PlanResponse
		submitOut wire.SubmitRequest
	)
	return map[string]map[string]codecPair{
		"tlv": {
			"round_info": {
				encode: func() ([]byte, error) { buf = binary.AppendRoundInfo(buf[:0], round); return buf, nil },
				decode: func(d []byte) error { return binary.DecodeRoundInfo(d, &roundOut) },
			},
			"plan_response": {
				encode: func() ([]byte, error) { buf = binary.AppendPlanResponse(buf[:0], plan); return buf, nil },
				decode: func(d []byte) error { return binary.DecodePlanResponse(d, &planOut) },
			},
			"submit_request": {
				encode: func() ([]byte, error) { buf = binary.AppendSubmitRequest(buf[:0], submit); return buf, nil },
				decode: func(d []byte) error { return binary.DecodeSubmitRequest(d, &submitOut) },
			},
		},
		"json": {
			"round_info": {
				encode: func() ([]byte, error) { return json.Marshal(round) },
				decode: func(d []byte) error { return json.Unmarshal(d, &roundOut) },
			},
			"plan_response": {
				encode: func() ([]byte, error) { return json.Marshal(plan) },
				decode: func(d []byte) error { return json.Unmarshal(d, &planOut) },
			},
			"submit_request": {
				encode: func() ([]byte, error) { return json.Marshal(submit) },
				decode: func(d []byte) error { return json.Unmarshal(d, &submitOut) },
			},
		},
	}
}

// measureWire times the public codec functions of both codecs on the
// messages captured in the run, fills the wire.* metrics, and returns the
// costs by codec then message. A message the run never produced is
// measured empty.
func measureWire(m map[string]float64, round *wire.RoundInfo, plan *wire.PlanResponse, submit *wire.SubmitRequest) (map[string]map[string]codecCost, error) {
	if round == nil {
		round = &wire.RoundInfo{}
	}
	if plan == nil {
		plan = &wire.PlanResponse{}
	}
	if submit == nil {
		submit = &wire.SubmitRequest{}
	}
	costs := make(map[string]map[string]codecCost)
	for codec, pairs := range wireCodecs(round, plan, submit) {
		costs[codec] = make(map[string]codecCost)
		for _, msg := range wireMessages {
			c, err := pairs[msg].measure()
			if err != nil {
				return nil, fmt.Errorf("wire %s %s: %w", codec, msg, err)
			}
			costs[codec][msg] = c
			m["wire."+codec+".encode_us."+msg] = float64(c.encode) / float64(time.Microsecond)
			m["wire."+codec+".decode_us."+msg] = float64(c.decode) / float64(time.Microsecond)
			m["wire."+codec+".bytes."+msg] = float64(c.bytes)
		}
	}
	return costs, nil
}
