package client

import (
	"encoding/json"
	"reflect"
	"testing"
)

// checkDecodeMatchesEncodingJSON fails t unless data decodes into an Entity
// and into a ShowView's wire form as encoding/json decodes it into the
// plain map and struct types: the same value, and an error exactly when
// encoding/json returns one.
func checkDecodeMatchesEncodingJSON(t *testing.T, data []byte) {
	t.Helper()
	var got Entity
	var want map[string]string
	gotErr, wantErr := json.Unmarshal(data, &got), json.Unmarshal(data, &want)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("Entity of %q: error %v, encoding/json %v", data, gotErr, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual(map[string]string(got), want) {
		t.Fatalf("Entity of %q = %#v, encoding/json %#v", data, got, want)
	}

	var wire showWire
	var view ShowView
	gotErr, wantErr = json.Unmarshal(data, &wire), json.Unmarshal(data, &view)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("ShowView of %q: error %v, encoding/json %v", data, gotErr, wantErr)
	}
	if got := (ShowView{WebText: wire.WebText, Fused: wire.Fused}); wantErr == nil && !reflect.DeepEqual(got, view) {
		t.Fatalf("ShowView of %q = %#v, encoding/json %#v", data, got, view)
	}
}

var decodeSeeds = []string{
	`{}`,
	` { "name" : "Mean Streets" , "type":"Movie" } `,
	"{\n  \"name\": \"Café \u2028\",\n  \"type\": \"Movie\"\n}",
	`{"a": "1", "a": "2"}`,
	`{"a": "<b>", "b": "x\ny"}`,
	`{"a": "` + "\xff" + `"}`,
	`{"a": 1}`,
	`{"a": null}`,
	`null`,
	`[]`,
	`{"a": "b",}`,
	`{"a" "b"}`,
	`{"web_text": {"SHOW_NAME": "Matilda"}, "fused": {"SHOW_NAME": "Matilda", "SEATS": "1251"}}`,
	`{"web_text": null, "FUSED": {"x": "y"}}`,
	`{"web_text": {"a": "\t"}, "fused": {"b": 2}}`,
	`{"web_text": {"a": "b"} "fused": {}}`,
	"{\"a\": \"\x01\"}",
	`{"a": "b"} x`,
	``,
}

func TestDecodeStrMapMatchesEncodingJSON(t *testing.T) {
	for _, s := range decodeSeeds {
		checkDecodeMatchesEncodingJSON(t, []byte(s))
	}
}

// FuzzDecodeStrMapMatchesEncodingJSON: for arbitrary bytes, the SDK's
// string-map decoder agrees with encoding/json on value and on failure.
func FuzzDecodeStrMapMatchesEncodingJSON(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDecodeMatchesEncodingJSON)
}
