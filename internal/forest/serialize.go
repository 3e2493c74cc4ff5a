package forest

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// serialized wraps a Forest with a format version so future layouts can be
// detected instead of silently misread.
type serialized struct {
	Version int     `json:"version"`
	Forest  *Forest `json:"forest"`
}

// formatVersion is the current on-disk JSON layout version.
const formatVersion = 1

// Marshal serializes the forest to the versioned JSON wire format.
func Marshal(f *Forest) ([]byte, error) {
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("refusing to serialize invalid forest: %w", err)
	}
	return json.Marshal(serialized{Version: formatVersion, Forest: f})
}

// Unmarshal parses a forest from the versioned JSON wire format and
// seals it (Forest.Seal), which validates it.
func Unmarshal(data []byte) (*Forest, error) {
	var s serialized
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing forest JSON: %w", err)
	}
	if s.Version != formatVersion {
		return nil, fmt.Errorf("unsupported forest format version %d (supported: %d)", s.Version, formatVersion)
	}
	if s.Forest == nil {
		return nil, fmt.Errorf("forest JSON missing %q field", "forest")
	}
	if err := s.Forest.Seal(); err != nil {
		return nil, fmt.Errorf("deserialized forest is invalid: %w", err)
	}
	return s.Forest, nil
}

// WriteTo writes the serialized forest to w.
func WriteTo(f *Forest, w io.Writer) error {
	data, err := Marshal(f)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// ReadFrom reads and parses a serialized forest from r.
func ReadFrom(r io.Reader) (*Forest, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("reading forest: %w", err)
	}
	return Unmarshal(data)
}

// SaveFile serializes the forest to the named file.
func SaveFile(f *Forest, path string) error {
	data, err := Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadFile reads a serialized forest from the named file.
func LoadFile(path string) (*Forest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading forest file: %w", err)
	}
	return Unmarshal(data)
}
