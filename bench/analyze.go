package main

import (
	"slices"
	"strings"
)

// Round labels ("service/type" as sent) grouped by the role they play in an
// operation. ABD and TREAS name their three DAP primitives differently.
var (
	labelsGetTag  = []string{"abd/query-tag", "treas/query-tag"}
	labelsGetData = []string{"abd/query", "treas/query-list"}
	labelsPutData = []string{"abd/write", "treas/put-data"}
)

const (
	labelReadConfig  = "recon/read-config"
	labelWriteConfig = "recon/write-config"
	labelQueryList   = "treas/query-list"
	paxosPrefix      = "paxos/"
	treasPrefix      = "treas/"
	// steadyReadConfigs is what an op pays with no reconfiguration in
	// flight: one read-config before its DAP phases and one after.
	steadyReadConfigs = 2
)

// kindStats is what the traced pass learned about one kind of op.
type kindStats struct {
	Ops       int
	Rounds    int       // all rounds, metadata included
	LatencyUS []float64 // op span
	SelfUS    []float64 // op span minus its round intervals
	// roundUS[label] are the intervals of that label's rounds inside ops of
	// this kind; len(roundUS[label])/Ops is rounds of that label per op.
	roundUS map[string][]float64
}

// reconstruct rebuilds the kind's median latency from its parts:
// Σ over labels of (rounds per op × that round's median) + median self time.
// Close to the traced median means the spans account for the op.
func (k *kindStats) reconstruct() float64 {
	if k.Ops == 0 {
		return 0
	}
	total := median(k.SelfUS)
	for _, us := range k.roundUS {
		total += float64(len(us)) / float64(k.Ops) * median(us)
	}
	return total
}

// layerStats is everything the per-layer metrics need from the spans.
type layerStats struct {
	Kind [3]kindStats // by opKind

	MetaRounds       int // recon/read-config rounds under get/put ops
	ConfigsTraversed int // read-config rounds beyond the steady two, get/put ops
	ReadConfigUS     []float64
	WriteConfigUS    []float64
	GetTagUS         []float64
	GetDataUS        []float64
	PutDataUS        []float64
	QueryListReplyB  []float64

	Invokes    int
	Stragglers int
	TreasSpans int // Invokes of any treas/* type: erasure coding ran

	// Reconfig ops only.
	DecideMS       []float64 // first paxos round start → last paxos round end
	PaxosRounds    int
	UpdateConfigMS []float64 // first get-data round start → last put-data round end
}

// analyze folds the traced window's Invoke spans under their op spans.
// ops must be the completed ops that started and ended inside the traced
// window; spans of any other op are ignored.
func analyze(ops []opSpan, spans []invokeSpan, labels []string) *layerStats {
	st := &layerStats{}
	for k := range st.Kind {
		st.Kind[k].roundUS = make(map[string][]float64)
	}
	index := make(map[uint64]int, len(ops))
	for i, op := range ops {
		index[op.ID] = i
	}
	byOp := make([][]invokeSpan, len(ops))
	for _, s := range spans {
		i, ok := index[s.Op]
		if !ok {
			continue
		}
		byOp[i] = append(byOp[i], s)
		st.Invokes++
		if s.Cancelled {
			st.Stragglers++
		}
		label := labels[s.Label]
		if strings.HasPrefix(label, treasPrefix) {
			st.TreasSpans++
		}
		if label == labelQueryList && !s.Cancelled && !s.Failed {
			st.QueryListReplyB = append(st.QueryListReplyB, float64(s.RespBytes))
		}
	}
	for i, op := range ops {
		rounds := groupRounds(byOp[i])
		k := &st.Kind[op.Kind]
		k.Ops++
		k.Rounds += len(rounds)
		k.LatencyUS = append(k.LatencyUS, float64(op.End-op.Start)/1e3)
		k.SelfUS = append(k.SelfUS, float64(selfTime(op, rounds))/1e3)

		readConfigs := 0
		var paxosStart, paxosEnd, xferStart, xferEnd int64
		for _, r := range rounds {
			label := labels[r.Label]
			us := float64(r.End-r.Start) / 1e3
			k.roundUS[label] = append(k.roundUS[label], us)
			if label == labelWriteConfig {
				st.WriteConfigUS = append(st.WriteConfigUS, us)
			}
			if op.Kind == opReconfig {
				switch {
				case strings.HasPrefix(label, paxosPrefix):
					st.PaxosRounds++
					if paxosStart == 0 {
						paxosStart = r.Start
					}
					paxosEnd = r.End
				case slices.Contains(labelsGetData, label):
					if xferStart == 0 {
						xferStart = r.Start
					}
				case slices.Contains(labelsPutData, label):
					xferEnd = r.End
				}
				continue
			}
			switch {
			case label == labelReadConfig:
				readConfigs++
				st.ReadConfigUS = append(st.ReadConfigUS, us)
			case slices.Contains(labelsGetTag, label):
				st.GetTagUS = append(st.GetTagUS, us)
			case slices.Contains(labelsGetData, label):
				st.GetDataUS = append(st.GetDataUS, us)
			case slices.Contains(labelsPutData, label):
				st.PutDataUS = append(st.PutDataUS, us)
			}
		}
		if op.Kind == opReconfig {
			if paxosEnd > paxosStart {
				st.DecideMS = append(st.DecideMS, float64(paxosEnd-paxosStart)/1e6)
			}
			if xferStart > 0 && xferEnd > xferStart {
				st.UpdateConfigMS = append(st.UpdateConfigMS, float64(xferEnd-xferStart)/1e6)
			}
			continue
		}
		st.MetaRounds += readConfigs
		if readConfigs > steadyReadConfigs {
			st.ConfigsTraversed += readConfigs - steadyReadConfigs
		}
	}
	return st
}

// quantile is the nearest-rank q-quantile of an unsorted sample.
func quantile(xs []float64, q float64) float64 { return percentile(sortedCopy(xs), q) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
