"""JSON schemas for CLI scenario files and results.

These dictionaries are the single source of truth; the published files under
schemas/ in the repository mirror all_schema_files(), and a test guards
against drift.  Complex numbers are encoded as [re, im]; extended
reals as a number or the string "inf".  Scenario schemas reject unknown
fields.
"""

COMPLEX = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}
VEC3 = {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3}
VEC4 = {"type": "array", "items": {"type": "number"}, "minItems": 4, "maxItems": 4}
MATRIX = {"type": "array", "items": {"type": "array", "items": COMPLEX}}
EXTENDED_REAL = {"oneOf": [{"type": "number"}, {"const": "inf"}]}
EVENT = {
    "type": "object",
    "required": ["t", "x"],
    "additionalProperties": False,
    "properties": {"t": {"type": "number"}, "x": VEC3},
}
_RANGE = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}

TRIPLE_SCHEMA = {
    "type": "object",
    "required": ["dim_H", "generators", "D_F"],
    "additionalProperties": False,
    "properties": {
        "dim_H": {"type": "integer", "minimum": 1},
        "generators": {"type": "array", "items": MATRIX},
        "D_F": MATRIX,
        "J_F": {"oneOf": [MATRIX, {"type": "null"}]},
        "gamma_F": {"oneOf": [MATRIX, {"type": "null"}]},
        "labels": {"type": "array", "items": {"type": "string"}},
    },
}


def _causal_scenario(key: str, weight: dict) -> dict:
    """Two events, a mass and a pair of sheet indices or of interpolation weights."""
    return {
        "type": "object",
        "required": ["event_a", "event_b", "m", key],
        "additionalProperties": False,
        "properties": {
            "event_a": EVENT,
            "event_b": EVENT,
            "m": COMPLEX,
            key: {"type": "array", "items": weight, "minItems": 2, "maxItems": 2},
        },
    }


INPUT_SCHEMAS = {
    "causal": {
        "oneOf": [
            _causal_scenario("sheets", {"type": "integer", "enum": [0, 1]}),
            _causal_scenario("xis", {"type": "number", "minimum": 0, "maximum": 1}),
        ]
    },
    "cone": {
        "oneOf": [
            {
                "type": "object",
                "required": ["k"],
                "additionalProperties": False,
                "properties": {"k": VEC4},
            },
            {
                "type": "object",
                "required": ["k0", "k1", "c0", "c1", "m", "box"],
                "additionalProperties": False,
                "properties": {
                    "k0": VEC4,
                    "k1": VEC4,
                    "c0": {"type": "number"},
                    "c1": {"type": "number"},
                    "m": COMPLEX,
                    "box": {
                        "type": "object",
                        "required": ["t", "x", "y", "z", "n"],
                        "additionalProperties": False,
                        "properties": {
                            "t": _RANGE,
                            "x": _RANGE,
                            "y": _RANGE,
                            "z": _RANGE,
                            "n": {"type": "integer", "minimum": 1, "maximum": 8},
                        },
                    },
                },
            },
        ]
    },
    "lightcone-scan": {
        "type": "object",
        "required": ["m", "t_min", "t_max", "t_steps", "r_min", "r_max", "r_steps"],
        "additionalProperties": False,
        "properties": {
            "m": COMPLEX,
            "t_min": {"type": "number"},
            "t_max": {"type": "number"},
            "t_steps": {"type": "integer", "minimum": 1},
            "r_min": {"type": "number"},
            "r_max": {"type": "number"},
            "r_steps": {"type": "integer", "minimum": 1},
        },
    },
    "classify": {
        "type": "object",
        "required": ["triple_file", "E", "p", "internal_index"],
        "additionalProperties": False,
        "properties": {
            "triple_file": {"type": "string"},
            "E": {"type": "number"},
            "p": VEC3,
            "internal_index": {"type": "integer", "minimum": 0},
            "tol": {"type": "number", "exclusiveMinimum": 0},
        },
    },
    "fluctuate": {
        "oneOf": [
            {
                "type": "object",
                "required": ["m_e", "h1", "h2"],
                "additionalProperties": False,
                "properties": {"m_e": COMPLEX, "h1": COMPLEX, "h2": COMPLEX},
            },
            {
                "type": "object",
                "required": ["m_e", "v", "h"],
                "additionalProperties": False,
                "properties": {
                    "m_e": COMPLEX,
                    "v": {"type": "number"},
                    "h": {"type": "number"},
                },
            },
        ]
    },
    "ew-dispersion": {
        "type": "object",
        "required": ["m_e", "v", "h", "p", "state"],
        "additionalProperties": False,
        "properties": {
            "m_e": COMPLEX,
            "v": {"type": "number"},
            "h": {"type": "number"},
            "p": VEC3,
            "state": {"type": "string"},
        },
    },
}

OUTPUT_SCHEMAS = {
    "validate": {
        "type": "object",
        "required": ["all_passed", "checks"],
        "additionalProperties": False,
        "properties": {
            "all_passed": {"type": "boolean"},
            "checks": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["name", "passed", "detail"],
                    "additionalProperties": False,
                    "properties": {
                        "name": {"type": "string"},
                        "passed": {"type": "boolean"},
                        "detail": {"type": "string"},
                    },
                },
            },
        },
    },
    "distance": {
        "type": "object",
        "required": ["value", "maximizer", "gap"],
        "additionalProperties": False,
        "properties": {
            "value": EXTENDED_REAL,
            "maximizer": {"oneOf": [MATRIX, {"type": "null"}]},
            "gap": {"oneOf": [{"type": "number"}, {"type": "null"}]},
        },
    },
    "causal": {
        "type": "object",
        "required": ["related", "L2m", "proper_time", "threshold"],
        "additionalProperties": False,
        "properties": {
            "related": {"type": "boolean"},
            "L2m": {"oneOf": [{"type": "number"}, {"const": "inf"}, {"type": "null"}]},
            "proper_time": {"oneOf": [{"type": "number"}, {"type": "null"}]},
            "threshold": EXTENDED_REAL,
        },
    },
    "cone": {
        "type": "object",
        "required": ["causal", "worst_eigenvalue"],
        "additionalProperties": False,
        "properties": {
            "causal": {"type": "boolean"},
            "worst_eigenvalue": {"type": "number"},
        },
    },
    "classify": {
        "type": "object",
        "required": ["class", "ratio", "on_shell_E"],
        "additionalProperties": False,
        "properties": {
            "class": {"type": "string", "enum": ["Causal", "Harmonic", "NonCausal"]},
            "ratio": {"type": "number"},
            "on_shell_E": {"type": "number"},
        },
    },
    "fluctuate": {
        "type": "object",
        "required": ["phi", "Phi", "trace_phi_sq", "closed_form", "max_abs_diff"],
        "additionalProperties": False,
        "properties": {
            "phi": MATRIX,
            "Phi": MATRIX,
            "trace_phi_sq": {"type": "number"},
            "closed_form": {"type": "number"},
            "max_abs_diff": {"type": "number"},
        },
    },
    "ew-dispersion": {
        "type": "object",
        "required": ["E_on_shell", "residual"],
        "additionalProperties": False,
        "properties": {
            "E_on_shell": {"type": "number"},
            "residual": {"type": "number"},
        },
    },
}


def all_schema_files() -> dict:
    """Map of published file name -> schema dict."""
    files = {"triple.json": TRIPLE_SCHEMA}
    for name, schema in INPUT_SCHEMAS.items():
        files[f"{name.replace('-', '_')}_input.json"] = schema
    for name, schema in OUTPUT_SCHEMAS.items():
        files[f"{name.replace('-', '_')}_output.json"] = schema
    return files

