package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"

	"diffkv/internal/telemetry"
)

// instanceRowKeys is the /debug/telemetry instance-row JSON key set
// diffkv-top decodes; instanceRowOmitempty are the keys a row omits
// when their value is empty.
var (
	instanceRowKeys = []string{
		"inst", "health", "queue_depth", "running", "swapped",
		"free_kv_pages", "used_kv_pages", "resident_tokens", "swapped_tokens",
		"host_bytes", "capacity_tokens", "demand_tokens", "headroom",
		"headroom_slope_per_sec", "time_to_saturation_sec", "advisory",
		"preemptions", "swap_out_bytes", "swap_in_bytes",
		"queue_spark", "headroom_spark", "latency",
	}
	instanceRowOmitempty = []string{
		"health", "time_to_saturation_sec", "advisory",
		"queue_spark", "headroom_spark", "latency",
	}
)

// fillNonZero sets every exported field of the struct v points to, the
// promoted fields of embedded structs included, to a non-zero value.
func fillNonZero(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !f.CanSet() {
			continue
		}
		switch f.Kind() {
		case reflect.Struct:
			fillNonZero(f)
		case reflect.Int, reflect.Int64:
			f.SetInt(1)
		case reflect.Float64:
			f.SetFloat(1)
		case reflect.String:
			f.SetString("x")
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		case reflect.Map:
			m := reflect.MakeMap(f.Type())
			m.SetMapIndex(reflect.ValueOf("x"), reflect.Zero(f.Type().Elem()))
			f.Set(m)
		}
	}
}

// rowKeys marshals v and returns its sorted top-level JSON keys.
func rowKeys(t *testing.T, v any) []string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var row map[string]json.RawMessage
	if err := json.Unmarshal(data, &row); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(row))
	for k := range row {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// TestDebugTelemetryInstanceKeys pins the instance-row key set: a row
// with every field set carries exactly instanceRowKeys (so the cluster's
// own tags never leak into it), an empty row drops exactly the
// omitempty keys, and a live /debug/telemetry row uses only pinned keys
// and carries every one that is never omitted.
func TestDebugTelemetryInstanceKeys(t *testing.T) {
	all := slices.Sorted(slices.Values(instanceRowKeys))
	required := slices.DeleteFunc(slices.Clone(all), func(k string) bool {
		return slices.Contains(instanceRowOmitempty, k)
	})

	var full telemetry.InstanceSnapshot
	fillNonZero(reflect.ValueOf(&full).Elem())
	if got := rowKeys(t, full); !slices.Equal(got, all) {
		t.Fatalf("full row keys:\n got %v\nwant %v", got, all)
	}
	if got := rowKeys(t, telemetry.InstanceSnapshot{}); !slices.Equal(got, required) {
		t.Fatalf("empty row keys:\n got %v\nwant %v", got, required)
	}

	l, tc := disaggLoop(t)
	srv := newCenterServer(t, l, tc)
	resp, err := http.Post(srv.URL+"/v1/completions", "application/json",
		strings.NewReader(`{"prompt_tokens": 128, "max_tokens": 8}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	dr, err := http.Get(srv.URL + "/debug/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Body.Close()
	var doc struct {
		Instances []map[string]json.RawMessage `json:"instances"`
	}
	if err := json.NewDecoder(dr.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Instances) != 4 {
		t.Fatalf("%d instance rows, want 4", len(doc.Instances))
	}
	for _, row := range doc.Instances {
		for k := range row {
			if !slices.Contains(all, k) {
				t.Fatalf("live row has unpinned key %q: %v", k, row)
			}
		}
		for _, k := range required {
			if _, ok := row[k]; !ok {
				t.Fatalf("live row lacks key %q: %v", k, row)
			}
		}
	}
}
