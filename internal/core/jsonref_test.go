package core

import (
	"encoding/json"
	"fmt"
)

// ReferenceUnmarshal is the encoding/json instance decoder that
// UnmarshalJSON's scanner replaced, kept as the differential reference:
// json.Unmarshal into the {nodes, edges} wire form, then the same
// validation.  FuzzInstanceDecodeDifferential holds the two to the same
// answers.
func ReferenceUnmarshal(data []byte) (*Instance, error) {
	var ij instanceJSON
	if err := json.Unmarshal(data, &ij); err != nil {
		return nil, fmt.Errorf("core: invalid instance JSON: %w", err)
	}
	return ij.instance()
}
