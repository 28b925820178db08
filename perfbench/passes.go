package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"icash/internal/blockdev"
	"icash/internal/delta"
	"icash/internal/workload"
)

// oracle knows the content every LBA must hold after the measured
// phase. It replays the run's request streams through fresh
// generators, so it owns its own write-version history and shares
// nothing with the generators the harness consumed.
type oracle struct {
	streams []*workload.Generator
	image   int64 // per-stream LBA partition; 0 when there is one stream
}

func (o *oracle) content(lba int64, buf []byte) {
	g := o.streams[0]
	if o.image > 0 {
		g = o.streams[lba/o.image]
	}
	g.CurrentContent(lba, buf)
}

// genPass is the standalone workload pass: Next and WriteContent over
// the same streams harness.Run consumes, and nothing else. Its cost is
// the floor under the end-to-end request rate. It returns the oracle
// the replay leaves behind and up to maxPairs (base, written) content
// pairs for the delta pass.
type genPass struct {
	requests int64
	elapsed  time.Duration
	pairs    [][2][]byte
}

// runGenPass replays the streams of s at seed; limit is the device's
// block count, past which the harness runners drop blocks.
func runGenPass(s spec, seed uint64, limit int64, maxPairs int) (*oracle, *genPass) {
	gen := workload.NewGenerator(s.profile, s.options(seed))
	o := &oracle{streams: []*workload.Generator{gen}}
	if s.streamPerVM {
		if vs := gen.VMStreams(); vs != nil {
			o.streams, o.image = vs, gen.ImageBlocks()
		}
	}
	gp := &genPass{}
	buf := make([]byte, blockdev.BlockSize)
	var collecting time.Duration // pair copies, kept out of elapsed
	start := time.Now()
	for _, g := range o.streams {
		for {
			req, ok := g.Next()
			if !ok {
				break
			}
			gp.requests++
			if !req.Write {
				continue
			}
			for i := 0; i < req.Blocks; i++ {
				lba := req.LBA + int64(i)
				if lba >= limit {
					break
				}
				g.WriteContent(lba, buf)
				if len(gp.pairs) < maxPairs {
					t := time.Now()
					base := make([]byte, blockdev.BlockSize)
					g.Fill(lba, base)
					gp.pairs = append(gp.pairs, [2][]byte{base, append([]byte(nil), buf...)})
					collecting += time.Since(t)
				}
			}
		}
	}
	gp.elapsed = time.Since(start) - collecting
	return o, gp
}

// deltaPass times the delta codec on the workload's own pairs: each
// written block against the block's initial content, at the
// controller's size threshold. Every successful encode is decoded and
// compared with the written block.
type deltaPass struct {
	encodeNS, decodeNS float64
	bytesPerBlock      float64
	encoded            int
}

const deltaRounds = 5

func runDeltaPass(pairs [][2][]byte, maxSize int, tr *tracer) (*deltaPass, error) {
	encs := make([][]byte, len(pairs))
	var encTimes, decTimes []float64
	for round := 0; round < deltaRounds; round++ {
		sp := tr.begin("delta.encode", 0)
		start := time.Now()
		for i, p := range pairs {
			enc, ok := delta.AppendEncode(encs[i][:0], p[1], p[0], maxSize)
			if ok {
				encs[i] = enc
			} else {
				encs[i] = encs[i][:0]
			}
		}
		encTimes = append(encTimes, float64(time.Since(start).Nanoseconds())/float64(len(pairs)))
		tr.end(sp)
	}
	dp := &deltaPass{encodeNS: median(encTimes)}
	var encBytes int
	for _, e := range encs {
		if len(e) > 0 {
			dp.encoded++
			encBytes += len(e)
		}
	}
	if dp.encoded == 0 {
		return nil, fmt.Errorf("delta pass: no pair encoded under %d bytes", maxSize)
	}
	dp.bytesPerBlock = float64(encBytes) / float64(dp.encoded)
	out := make([]byte, 0, blockdev.BlockSize)
	for round := 0; round < deltaRounds; round++ {
		sp := tr.begin("delta.decode", 0)
		start := time.Now()
		for i, p := range pairs {
			if len(encs[i]) == 0 {
				continue
			}
			dec, err := delta.AppendDecode(out[:0], p[0], encs[i])
			if err != nil {
				return nil, fmt.Errorf("delta pass: decode pair %d: %w", i, err)
			}
			if round == 0 && !bytes.Equal(dec, p[1]) {
				return nil, fmt.Errorf("delta pass: pair %d decodes to different content", i)
			}
		}
		decTimes = append(decTimes, float64(time.Since(start).Nanoseconds())/float64(dp.encoded))
		tr.end(sp)
	}
	dp.decodeNS = median(decTimes)
	return dp, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
