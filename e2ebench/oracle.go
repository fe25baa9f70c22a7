package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// The reference answers are computed from the generated lines with
// encoding/json, independently of the tile path under test.

// tpchDoc holds the TPC-H fields the query mix reads; a nil field is a
// key the document does not have.
type tpchDoc struct {
	ReturnFlag *string  `json:"l_returnflag"`
	LineStatus *string  `json:"l_linestatus"`
	Quantity   *int64   `json:"l_quantity"`
	ExtPrice   *float64 `json:"l_extendedprice"`
	Discount   *float64 `json:"l_discount"`
	ShipDate   *string  `json:"l_shipdate"`
	ShipMode   *string  `json:"l_shipmode"`
	TotalPrice *float64 `json:"o_totalprice"`
	PType      *string  `json:"p_type"`
	PSize      *int64   `json:"p_size"`
}

// tpchMix is the single-table envelope mix of the TPC-H workloads.
func tpchMix(table string) []envelope {
	return []envelope{
		{"q1_groupby_flags", map[string]any{
			"table": table,
			"select": []string{"data->>'l_returnflag'", "data->>'l_linestatus'",
				"data->>'l_quantity'::BigInt", "data->>'l_extendedprice'::Float"},
			"where":    []map[string]any{{"col": 0, "op": "not_null"}},
			"group_by": []int{0, 1},
			"aggs": []map[string]any{{"fn": "count", "name": "n"},
				{"fn": "sum", "col": 2, "name": "qty"}, {"fn": "sum", "col": 3, "name": "price"}},
			"order_by": []map[string]any{{"col": 0}, {"col": 1}},
		}},
		{"q6_range_sum", map[string]any{
			"table": table,
			"select": []string{"data->>'l_shipdate'", "data->>'l_discount'::Float",
				"data->>'l_quantity'::BigInt", "data->>'l_extendedprice'::Float"},
			"where": []map[string]any{
				{"col": 0, "op": ">=", "value": "1994-01-01"}, {"col": 0, "op": "<", "value": "1995-01-01"},
				{"col": 1, "op": ">=", "value": 0.05}, {"col": 1, "op": "<=", "value": 0.07},
				{"col": 2, "op": "<", "value": 24}},
			"aggs": []map[string]any{{"fn": "sum", "col": 3, "name": "revenue"}, {"fn": "count", "name": "n"}},
		}},
		{"top100_totalprice", map[string]any{
			"table":    table,
			"select":   []string{"data->>'o_totalprice'::Float"},
			"where":    []map[string]any{{"col": 0, "op": "not_null"}},
			"order_by": []map[string]any{{"col": 0, "desc": true}},
			"limit":    100,
		}},
		{"promo_by_size", map[string]any{
			"table":    table,
			"select":   []string{"data->>'p_type'", "data->>'p_size'::BigInt"},
			"where":    []map[string]any{{"col": 0, "op": "like", "value": "PROMO%"}},
			"group_by": []int{1},
			"aggs":     []map[string]any{{"fn": "count", "name": "n"}},
			"order_by": []map[string]any{{"col": 0}},
		}},
		{"shipmode_in_groupby", map[string]any{
			"table":    table,
			"select":   []string{"data->>'l_shipmode'", "data->>'l_quantity'::BigInt"},
			"where":    []map[string]any{{"col": 0, "op": "in", "values": []string{"MAIL", "SHIP"}}},
			"group_by": []int{0},
			"aggs":     []map[string]any{{"fn": "count", "name": "n"}, {"fn": "sum", "col": 1, "name": "qty"}},
			"order_by": []map[string]any{{"col": 0}},
		}},
	}
}

// tpchReference answers tpchMix over lines, one row set per envelope.
func tpchReference(lines [][]byte) ([][][]any, error) {
	type flagKey struct{ rf, ls string }
	type flagAgg struct {
		n, qty int64
		price  float64
	}
	flags := map[flagKey]*flagAgg{}
	var q6Sum float64
	var q6N int64
	var prices []float64
	promo := map[int64]int64{}
	type modeAgg struct{ n, qty int64 }
	modes := map[string]*modeAgg{}

	for i, l := range lines {
		var d tpchDoc
		if err := json.Unmarshal(l, &d); err != nil {
			return nil, fmt.Errorf("reference: line %d: %w", i, err)
		}
		if d.ReturnFlag != nil && d.LineStatus != nil {
			k := flagKey{*d.ReturnFlag, *d.LineStatus}
			a := flags[k]
			if a == nil {
				a = &flagAgg{}
				flags[k] = a
			}
			a.n++
			a.qty += *d.Quantity
			a.price += *d.ExtPrice
		}
		if d.ShipDate != nil && *d.ShipDate >= "1994-01-01" && *d.ShipDate < "1995-01-01" &&
			*d.Discount >= 0.05 && *d.Discount <= 0.07 && *d.Quantity < 24 {
			q6Sum += *d.ExtPrice
			q6N++
		}
		if d.TotalPrice != nil {
			prices = append(prices, *d.TotalPrice)
		}
		if d.PType != nil && strings.HasPrefix(*d.PType, "PROMO") {
			promo[*d.PSize]++
		}
		if d.ShipMode != nil && (*d.ShipMode == "MAIL" || *d.ShipMode == "SHIP") {
			a := modes[*d.ShipMode]
			if a == nil {
				a = &modeAgg{}
				modes[*d.ShipMode] = a
			}
			a.n++
			a.qty += *d.Quantity
		}
	}

	var q1 [][]any
	for k, a := range flags {
		q1 = append(q1, []any{k.rf, k.ls, a.n, a.qty, a.price})
	}
	sort.Slice(q1, func(i, j int) bool {
		if q1[i][0] != q1[j][0] {
			return q1[i][0].(string) < q1[j][0].(string)
		}
		return q1[i][1].(string) < q1[j][1].(string)
	})
	q6 := [][]any{{q6Sum, q6N}}
	sort.Sort(sort.Reverse(sort.Float64Slice(prices)))
	var top [][]any
	for _, p := range prices[:min(100, len(prices))] {
		top = append(top, []any{p})
	}
	var pr [][]any
	for size, n := range promo {
		pr = append(pr, []any{size, n})
	}
	sort.Slice(pr, func(i, j int) bool { return pr[i][0].(int64) < pr[j][0].(int64) })
	var sm [][]any
	for m, a := range modes {
		sm = append(sm, []any{m, a.n, a.qty})
	}
	sort.Slice(sm, func(i, j int) bool { return sm[i][0].(string) < sm[j][0].(string) })
	return [][][]any{q1, q6, top, pr, sm}, nil
}

// tweetDoc holds the tweet fields the reader mix reads.
type tweetDoc struct {
	User *struct {
		ScreenName *string `json:"screen_name"`
		Followers  *int64  `json:"followers_count"`
	} `json:"user"`
	Lang     *string `json:"lang"`
	Favorite *int64  `json:"favorite_count"`
}

// twitterMix is the reader's envelope mix of mixed-twitter-remote.
func twitterMix(table string) []envelope {
	return []envelope{
		{"screen_name_groupby", map[string]any{
			"table":    table,
			"select":   []string{"data->'user'->>'screen_name'", "data->'user'->>'followers_count'::BigInt"},
			"where":    []map[string]any{{"col": 1, "op": ">", "value": 1000}},
			"group_by": []int{0},
			"aggs":     []map[string]any{{"fn": "count", "name": "n"}},
			"order_by": []map[string]any{{"col": 0}},
		}},
		{"lang_groupby", map[string]any{
			"table":    table,
			"select":   []string{"data->>'lang'"},
			"where":    []map[string]any{{"col": 0, "op": "not_null"}},
			"group_by": []int{0},
			"aggs":     []map[string]any{{"fn": "count", "name": "n"}},
			"order_by": []map[string]any{{"col": 0}},
		}},
		{"top20_favorites", map[string]any{
			"table":    table,
			"select":   []string{"data->>'favorite_count'::BigInt"},
			"where":    []map[string]any{{"col": 0, "op": "not_null"}},
			"order_by": []map[string]any{{"col": 0, "desc": true}},
			"limit":    20,
		}},
	}
}

// twitterReference answers twitterMix over every prefix of lines that
// ends at a batch boundary: ref[k] holds the answers once the first
// preload + k×batch documents are committed.
func twitterReference(lines [][]byte, preload, batch int) ([][][][]any, error) {
	names := map[string]int64{}
	langs := map[string]int64{}
	var favs []int64 // the 20 largest so far, descending
	var refs [][][][]any
	snapshot := func() {
		var r0, r1, r2 [][]any
		for k, n := range names {
			r0 = append(r0, []any{k, n})
		}
		sort.Slice(r0, func(i, j int) bool { return r0[i][0].(string) < r0[j][0].(string) })
		for k, n := range langs {
			r1 = append(r1, []any{k, n})
		}
		sort.Slice(r1, func(i, j int) bool { return r1[i][0].(string) < r1[j][0].(string) })
		for _, f := range favs {
			r2 = append(r2, []any{f})
		}
		refs = append(refs, [][][]any{r0, r1, r2})
	}
	for i, l := range lines {
		var d tweetDoc
		if err := json.Unmarshal(l, &d); err != nil {
			return nil, fmt.Errorf("reference: line %d: %w", i, err)
		}
		if d.User != nil && d.User.ScreenName != nil && d.User.Followers != nil && *d.User.Followers > 1000 {
			names[*d.User.ScreenName]++
		}
		if d.Lang != nil {
			langs[*d.Lang]++
		}
		if d.Favorite != nil {
			at := sort.Search(len(favs), func(j int) bool { return favs[j] < *d.Favorite })
			if at < 20 {
				favs = append(favs[:at], append([]int64{*d.Favorite}, favs[at:]...)...)
				if len(favs) > 20 {
					favs = favs[:20]
				}
			}
		}
		n := i + 1
		if n == preload || (n > preload && ((n-preload)%batch == 0 || n == len(lines))) {
			snapshot()
		}
	}
	return refs, nil
}
