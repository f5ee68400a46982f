//! Program output stream (the `printf` model).
//!
//! Each `Output` instruction appends an [`OutputRecord`]: the
//! raw value and the string a C `printf` with the corresponding format would
//! have produced.  Verification phases that compare *formatted* output are
//! where the paper's Truncation pattern (e.g. LULESH's `%12.6e`) hides
//! corrupted low-order mantissa bits from the user.

use serde::{Deserialize, Serialize};

use ftkr_ir::OutputFormat;

use crate::value::Value;

/// One emitted output value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutputRecord {
    /// The raw value at the time of the output instruction.
    pub value: Value,
    /// The format it was emitted with.
    pub format: OutputFormat,
    /// The rendered text (what the user sees).
    pub text: String,
}

/// Render a value the way a C `printf` would for the given format.
pub fn format_value(value: Value, format: OutputFormat) -> String {
    match format {
        OutputFormat::Full => match value {
            Value::F(v) => format!("{v:?}"),
            Value::I(v) => format!("{v}"),
            Value::P(v) => format!("&{v}"),
        },
        OutputFormat::Scientific(digits) => {
            format!("{:.*e}", digits as usize, value.to_f64_lossy())
        }
        OutputFormat::Integer => format!("{}", value.to_f64_lossy() as i64),
    }
}

/// The full output stream of one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProgramOutput {
    /// Emitted records, in program order.
    pub records: Vec<OutputRecord>,
}

impl ProgramOutput {
    /// Append a value, rendering it with `format`.
    pub fn emit(&mut self, value: Value, format: OutputFormat) {
        self.records.push(OutputRecord {
            value,
            format,
            text: format_value(value, format),
        });
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The raw values, for verification phases that recompute norms.
    pub fn values(&self) -> Vec<Value> {
        self.records.iter().map(|r| r.value).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scientific_formatting_truncates_mantissa_detail() {
        let a = Value::F(1.234567891234);
        let b = Value::F(1.234567891999); // differs only past the 6th digit
        assert_ne!(a, b);
        assert_eq!(
            format_value(a, OutputFormat::Scientific(6)),
            format_value(b, OutputFormat::Scientific(6))
        );
        assert_ne!(
            format_value(a, OutputFormat::Full),
            format_value(b, OutputFormat::Full)
        );
    }

    #[test]
    fn integer_format_truncates_fraction() {
        assert_eq!(format_value(Value::F(3.99), OutputFormat::Integer), "3");
        assert_eq!(format_value(Value::I(7), OutputFormat::Integer), "7");
    }

    #[test]
    fn output_stream_text_matching() {
        let mut a = ProgramOutput::default();
        let mut b = ProgramOutput::default();
        a.emit(Value::F(1.0000001), OutputFormat::Scientific(3));
        b.emit(Value::F(1.0000002), OutputFormat::Scientific(3));
        let texts = |o: &ProgramOutput| -> Vec<String> {
            o.records.iter().map(|r| r.text.clone()).collect()
        };
        assert_eq!(texts(&a), texts(&b));
        assert_eq!(a.len(), 1);
        assert!(!a.is_empty());
        b.emit(Value::I(1), OutputFormat::Integer);
        assert_ne!(texts(&a), texts(&b));
        assert_eq!(a.values().len(), 1);
    }
}
