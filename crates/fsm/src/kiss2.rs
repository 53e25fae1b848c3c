//! Reading and writing Mealy machines in the KISS2 format used by the MCNC /
//! IWLS benchmark distributions.
//!
//! A KISS2 description lists the number of primary input bits (`.i`), output
//! bits (`.o`), transitions (`.p`), states (`.s`) and optionally a reset state
//! (`.r`), followed by one line per (cube, state) transition:
//!
//! ```text
//! .i 1
//! .o 1
//! .s 2
//! .p 4
//! .r a
//! 0 a a 0
//! 1 a b 0
//! 0 b b 1
//! 1 b a 1
//! .e
//! ```
//!
//! Input cubes may contain `-` (don't care); such lines are expanded to all
//! matching input vectors.  The resulting [`Mealy`] machine has one input
//! symbol per input *vector* (so `2^i` symbols) and one output symbol per
//! distinct output *vector* occurring in the description.  Output don't-cares
//! are resolved to `0`, which preserves a fully specified machine as the paper
//! requires.

use crate::error::FsmError;
use crate::machine::Mealy;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Options controlling how a KISS2 description is turned into a [`Mealy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Kiss2Options {
    /// If `true` (default `false`), (state, input) pairs that are not covered
    /// by any transition line are completed with a self-loop and an all-zero
    /// output instead of producing [`FsmError::Incomplete`].
    pub complete_with_self_loops: bool,
}

/// Parses a KISS2 description into a fully specified [`Mealy`] machine using
/// default [`Kiss2Options`].
///
/// # Errors
///
/// Returns [`FsmError::Kiss2`] on malformed input and
/// [`FsmError::Incomplete`] if the description does not cover every
/// (state, input-vector) pair.
pub fn parse(text: &str, name: &str) -> Result<Mealy, FsmError> {
    parse_with_options(text, name, Kiss2Options::default())
}

/// Parses a KISS2 description with explicit [`Kiss2Options`].
///
/// # Errors
///
/// See [`parse`].
pub fn parse_with_options(text: &str, name: &str, opts: Kiss2Options) -> Result<Mealy, FsmError> {
    let mut input_bits: Option<usize> = None;
    let mut output_bits: Option<usize> = None;
    let mut declared_states: Option<usize> = None;
    let mut reset_name: Option<String> = None;
    struct RawTransition {
        line: usize,
        input_col: usize,
        output_col: usize,
        input_cube: String,
        from: String,
        to: String,
        output_cube: String,
    }
    let mut raw: Vec<RawTransition> = Vec::new();

    for (lineno, line) in text.lines().enumerate() {
        let line_number = lineno + 1;
        let toks = tokenize(line);
        let Some(&(first_col, first)) = toks.first() else {
            continue;
        };
        match first {
            ".i" => input_bits = Some(parse_number(toks.get(1), line_number, first_col, ".i")?),
            ".o" => output_bits = Some(parse_number(toks.get(1), line_number, first_col, ".o")?),
            ".p" => {
                // Number of product terms; informational only.
                let _ = parse_number(toks.get(1), line_number, first_col, ".p")?;
            }
            ".s" => {
                declared_states = Some(parse_number(toks.get(1), line_number, first_col, ".s")?);
            }
            ".r" => {
                let &(col, name) = toks.get(1).ok_or_else(|| {
                    kiss_err_at(line_number, first_col, ".r", ".r requires a state name")
                })?;
                check_state_name(line_number, col, name)?;
                reset_name = Some(name.to_string());
            }
            ".e" | ".end" => break,
            _ => {
                if toks.len() < 4 {
                    return Err(kiss_err_at(
                        line_number,
                        first_col,
                        first,
                        &format!("transition needs 4 fields, found {}", toks.len()),
                    ));
                }
                let (from_col, from) = toks[1];
                let (to_col, to) = toks[2];
                let (out_col, out) = toks[3];
                check_state_name(line_number, from_col, from)?;
                check_state_name(line_number, to_col, to)?;
                raw.push(RawTransition {
                    line: line_number,
                    input_col: first_col,
                    output_col: out_col,
                    input_cube: first.to_string(),
                    from: from.to_string(),
                    to: to.to_string(),
                    output_cube: out.to_string(),
                });
            }
        }
    }

    let input_bits = input_bits.ok_or_else(|| kiss_err(0, "missing .i directive"))?;
    let output_bits = output_bits.ok_or_else(|| kiss_err(0, "missing .o directive"))?;
    if raw.is_empty() {
        return Err(kiss_err(0, "no transitions"));
    }

    // Collect state names in order of first appearance (reset state first if
    // declared, matching common KISS2 conventions).
    let mut state_names: Vec<String> = Vec::new();
    let mut state_index: BTreeMap<String, usize> = BTreeMap::new();
    let mut intern_state = |name: &str, state_names: &mut Vec<String>| {
        if let Some(&i) = state_index.get(name) {
            i
        } else {
            let i = state_names.len();
            state_names.push(name.to_string());
            state_index.insert(name.to_string(), i);
            i
        }
    };
    if let Some(r) = &reset_name {
        intern_state(r, &mut state_names);
    }
    for t in &raw {
        intern_state(&t.from, &mut state_names);
        intern_state(&t.to, &mut state_names);
    }
    let num_states = state_names.len();
    if let Some(declared) = declared_states {
        if declared != num_states {
            return Err(kiss_err(
                0,
                &format!(".s declares {declared} states but {num_states} are used"),
            ));
        }
    }

    // Intern output vectors (after resolving don't-cares to 0).
    let mut output_values: Vec<String> = Vec::new();
    let mut output_index: BTreeMap<String, usize> = BTreeMap::new();
    let mut resolved_raw: Vec<(usize, usize, String, usize, usize, usize)> = Vec::new();
    for t in &raw {
        if t.output_cube.len() != output_bits {
            return Err(kiss_err_at(
                t.line,
                t.output_col,
                &t.output_cube,
                &format!(
                    "output `{}` has {} bits, expected {}",
                    t.output_cube,
                    t.output_cube.len(),
                    output_bits
                ),
            ));
        }
        let resolved: String = t
            .output_cube
            .chars()
            .map(|c| match c {
                '0' | '1' => Ok(c),
                '-' | '~' => Ok('0'),
                other => Err(kiss_err_at(
                    t.line,
                    t.output_col,
                    &t.output_cube,
                    &format!("bad output bit `{other}`"),
                )),
            })
            .collect::<Result<String, FsmError>>()?;
        let next_id = output_values.len();
        let o = *output_index.entry(resolved.clone()).or_insert(next_id);
        if o == output_values.len() {
            output_values.push(resolved.clone());
        }
        if t.input_cube.len() != input_bits {
            return Err(kiss_err_at(
                t.line,
                t.input_col,
                &t.input_cube,
                &format!(
                    "input cube `{}` has {} bits, expected {}",
                    t.input_cube,
                    t.input_cube.len(),
                    input_bits
                ),
            ));
        }
        let from = state_index[&t.from];
        let to = state_index[&t.to];
        resolved_raw.push((t.line, t.input_col, t.input_cube.clone(), from, to, o));
    }

    let num_inputs = 1usize << input_bits;
    let num_outputs = output_values.len().max(1);
    let mut builder = Mealy::builder(name, num_states, num_inputs, num_outputs);
    builder
        .state_names(state_names.clone())
        .expect("state names are distinct by construction");
    builder
        .input_names((0..num_inputs).map(|v| to_bits(v, input_bits)))
        .expect("input names are distinct");
    builder
        .output_names(output_values.clone())
        .expect("output vectors are distinct by construction");
    if let Some(r) = &reset_name {
        builder
            .reset_state(state_index[r])
            .expect("reset state was interned");
    }

    for (line, col, cube, from, to, out) in &resolved_raw {
        for input in expand_cube(cube).map_err(|msg| kiss_err_at(*line, *col, cube, &msg))? {
            builder
                .transition(*from, input, *to, *out)
                .map_err(|e| match e {
                    FsmError::ConflictingTransition { state, input } => kiss_err_at(
                        *line,
                        *col,
                        cube,
                        &format!(
                            "overlapping cubes give conflicting transitions for state {state}, input {input}"
                        ),
                    ),
                    other => other,
                })?;
        }
    }
    if opts.complete_with_self_loops {
        builder.complete_with_self_loops(0);
    }
    builder.build()
}

/// Writes a [`Mealy`] machine as KISS2 text.
///
/// The machine's input symbols are written as binary vectors of
/// `⌈log2 |I|⌉` bits and the output symbols as vectors of `⌈log2 |O|⌉` bits
/// (their index in binary), unless the symbol names already look like binary
/// vectors of a consistent width, in which case the names are reused.
#[must_use]
pub fn write(machine: &Mealy) -> String {
    let input_bits = binary_name_width(machine, NameKind::Input)
        .unwrap_or_else(|| machine.input_bits().max(1) as usize);
    let output_bits = binary_name_width(machine, NameKind::Output)
        .unwrap_or_else(|| machine.output_bits().max(1) as usize);
    let use_input_names = binary_name_width(machine, NameKind::Input).is_some();
    let use_output_names = binary_name_width(machine, NameKind::Output).is_some();

    let mut s = String::new();
    let _ = writeln!(s, ".i {input_bits}");
    let _ = writeln!(s, ".o {output_bits}");
    let _ = writeln!(s, ".s {}", machine.num_states());
    let _ = writeln!(s, ".p {}", machine.num_states() * machine.num_inputs());
    let _ = writeln!(s, ".r {}", machine.state_name(machine.reset_state()));
    for (st, i, n, o) in machine.transitions() {
        let ivec = if use_input_names {
            machine.input_name(i).to_string()
        } else {
            to_bits(i, input_bits)
        };
        let ovec = if use_output_names {
            machine.output_name(o).to_string()
        } else {
            to_bits(o, output_bits)
        };
        let _ = writeln!(
            s,
            "{ivec} {} {} {ovec}",
            machine.state_name(st),
            machine.state_name(n)
        );
    }
    s.push_str(".e\n");
    s
}

#[derive(Clone, Copy)]
enum NameKind {
    Input,
    Output,
}

/// If every input (or output) name is a fixed-width binary string, returns
/// that width.
fn binary_name_width(machine: &Mealy, kind: NameKind) -> Option<usize> {
    let count = match kind {
        NameKind::Input => machine.num_inputs(),
        NameKind::Output => machine.num_outputs(),
    };
    let mut width = None;
    for idx in 0..count {
        let name = match kind {
            NameKind::Input => machine.input_name(idx),
            NameKind::Output => machine.output_name(idx),
        };
        if name.is_empty() || !name.chars().all(|c| c == '0' || c == '1') {
            return None;
        }
        match width {
            None => width = Some(name.len()),
            Some(w) if w == name.len() => {}
            _ => return None,
        }
    }
    width
}

fn to_bits(value: usize, width: usize) -> String {
    (0..width)
        .rev()
        .map(|b| if value >> b & 1 == 1 { '1' } else { '0' })
        .collect()
}

fn expand_cube(cube: &str) -> Result<Vec<usize>, String> {
    let mut values = vec![0usize];
    for c in cube.chars() {
        let mut next = Vec::with_capacity(values.len() * 2);
        for v in &values {
            match c {
                '0' => next.push(v << 1),
                '1' => next.push((v << 1) | 1),
                '-' | '~' => {
                    next.push(v << 1);
                    next.push((v << 1) | 1);
                }
                other => return Err(format!("bad input bit `{other}`")),
            }
        }
        values = next;
    }
    Ok(values)
}

/// Tokens of a comment-stripped line, each with its 1-based byte column in
/// the original line (KISS2 is ASCII, so byte and character columns agree).
fn tokenize(raw: &str) -> Vec<(usize, &str)> {
    let content = raw.split('#').next().unwrap_or("");
    let mut tokens = Vec::new();
    let mut start: Option<usize> = None;
    for (i, c) in content.char_indices() {
        if c.is_whitespace() {
            if let Some(s) = start.take() {
                tokens.push((s + 1, &content[s..i]));
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        tokens.push((s + 1, &content[s..]));
    }
    tokens
}

/// Rejects state names that look like mangled directives: a `.`-prefixed
/// token in a state position almost always means a truncated or shuffled
/// line, and silently interning it as a state hides the real defect.
fn check_state_name(line: usize, column: usize, name: &str) -> Result<(), FsmError> {
    if name.starts_with('.') {
        return Err(kiss_err_at(
            line,
            column,
            name,
            &format!("bad state name `{name}`: names may not start with `.`"),
        ));
    }
    Ok(())
}

fn parse_number(
    token: Option<&(usize, &str)>,
    line: usize,
    directive_col: usize,
    directive: &str,
) -> Result<usize, FsmError> {
    let &(col, token) = token.ok_or_else(|| {
        kiss_err_at(
            line,
            directive_col,
            directive,
            &format!("{directive} requires a number"),
        )
    })?;
    token.parse().map_err(|_| {
        kiss_err_at(
            line,
            col,
            token,
            &format!("{directive} requires a number, got `{token}`"),
        )
    })
}

fn kiss_err(line: usize, message: &str) -> FsmError {
    FsmError::Kiss2 {
        line,
        column: 0,
        token: String::new(),
        message: message.to_string(),
    }
}

fn kiss_err_at(line: usize, column: usize, token: &str, message: &str) -> FsmError {
    FsmError::Kiss2 {
        line,
        column,
        token: token.to_string(),
        message: message.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOGGLE: &str = "\
.i 1
.o 1
.s 2
.p 4
.r a
0 a a 0
1 a b 0
0 b b 1
1 b a 1
.e
";

    #[test]
    fn parse_simple_machine() {
        let m = parse(TOGGLE, "toggle").unwrap();
        assert_eq!(m.num_states(), 2);
        assert_eq!(m.num_inputs(), 2);
        assert_eq!(m.num_outputs(), 2);
        assert_eq!(m.state_name(0), "a");
        assert_eq!(m.reset_state(), 0);
        assert_eq!(m.next_state(0, 1), 1);
        assert_eq!(m.output(1, 0), m.output(1, 1));
    }

    #[test]
    fn dont_care_inputs_expand() {
        let text = "\
.i 2
.o 1
.s 2
.p 4
-0 a a 0
-1 a b 1
-- b b 0
";
        let m = parse(text, "dc").unwrap();
        assert_eq!(m.num_inputs(), 4);
        // "-0" covers inputs 00 and 10.
        assert_eq!(m.next_state(0, 0b00), 0);
        assert_eq!(m.next_state(0, 0b10), 0);
        assert_eq!(m.next_state(0, 0b01), 1);
        assert_eq!(m.next_state(0, 0b11), 1);
        assert_eq!(m.next_state(1, 0b11), 1);
    }

    #[test]
    fn incomplete_machine_reports_error() {
        let text = "\
.i 1
.o 1
.s 2
0 a b 1
1 b a 0
";
        match parse(text, "inc") {
            Err(FsmError::Incomplete { .. }) => {}
            other => panic!("expected Incomplete, got {other:?}"),
        }
        let m = parse_with_options(
            text,
            "inc",
            Kiss2Options {
                complete_with_self_loops: true,
            },
        )
        .unwrap();
        assert_eq!(m.next_state(0, 1), 0, "self-loop completion");
    }

    #[test]
    fn conflicting_cubes_are_rejected() {
        let text = "\
.i 1
.o 1
.s 1
- a a 0
1 a a 1
";
        assert!(matches!(parse(text, "c"), Err(FsmError::Kiss2 { .. })));
    }

    #[test]
    fn malformed_directives() {
        assert!(matches!(parse(".i x\n", "m"), Err(FsmError::Kiss2 { .. })));
        assert!(matches!(
            parse(".o 1\n0 a a 0\n", "m"),
            Err(FsmError::Kiss2 { .. })
        ));
        assert!(matches!(
            parse(".i 1\n.o 1\n", "m"),
            Err(FsmError::Kiss2 { .. })
        ));
        assert!(matches!(
            parse(".i 1\n.o 1\n.s 3\n0 a a 0\n1 a a 0\n", "m"),
            Err(FsmError::Kiss2 { .. })
        ));
    }

    #[test]
    fn wrong_widths_are_rejected() {
        let bad_in = ".i 2\n.o 1\n.s 1\n0 a a 0\n";
        assert!(matches!(parse(bad_in, "m"), Err(FsmError::Kiss2 { .. })));
        let bad_out = ".i 1\n.o 2\n.s 1\n0 a a 0\n";
        assert!(matches!(parse(bad_out, "m"), Err(FsmError::Kiss2 { .. })));
    }

    #[test]
    fn malformed_header_reports_line_column_and_token() {
        // `.i x` on line 2: the bad number `x` sits at column 4.
        match parse("# header\n.i x\n", "m") {
            Err(FsmError::Kiss2 {
                line,
                column,
                token,
                message,
            }) => {
                assert_eq!(line, 2);
                assert_eq!(column, 4);
                assert_eq!(token, "x");
                assert!(message.contains(".i requires a number"), "{message}");
            }
            other => panic!("expected Kiss2, got {other:?}"),
        }
        // A bare `.o` points at the directive itself.
        match parse(".i 1\n  .o\n", "m") {
            Err(FsmError::Kiss2 {
                line,
                column,
                token,
                ..
            }) => {
                assert_eq!((line, column), (2, 3));
                assert_eq!(token, ".o");
            }
            other => panic!("expected Kiss2, got {other:?}"),
        }
    }

    #[test]
    fn bad_state_name_reports_offending_token() {
        let text = ".i 1\n.o 1\n0 a .b 0\n";
        match parse(text, "m") {
            Err(FsmError::Kiss2 {
                line,
                column,
                token,
                message,
            }) => {
                assert_eq!((line, column), (3, 5));
                assert_eq!(token, ".b");
                assert!(message.contains("bad state name"), "{message}");
            }
            other => panic!("expected Kiss2, got {other:?}"),
        }
        assert!(matches!(
            parse(".i 1\n.o 1\n.r .x\n0 a a 0\n", "m"),
            Err(FsmError::Kiss2 { line: 3, .. })
        ));
    }

    #[test]
    fn truncated_transition_line_reports_field_count() {
        let text = ".i 1\n.o 1\n0 a a 0\n1 a a\n";
        match parse(text, "m") {
            Err(FsmError::Kiss2 {
                line,
                column,
                token,
                message,
            }) => {
                assert_eq!((line, column), (4, 1));
                assert_eq!(token, "1");
                assert!(message.contains("needs 4 fields, found 3"), "{message}");
            }
            other => panic!("expected Kiss2, got {other:?}"),
        }
    }

    #[test]
    fn parse_error_display_includes_span() {
        let err = parse(".i x\n", "m").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("line 1"), "{text}");
        assert!(text.contains("column 4"), "{text}");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\
# a toggle machine
.i 1
.o 1

.s 2
0 a a 0   # self loop
1 a b 0
0 b b 1
1 b a 1
.e
";
        assert!(parse(text, "toggle").is_ok());
    }

    #[test]
    fn roundtrip_through_write() {
        let m = parse(TOGGLE, "toggle").unwrap();
        let text = write(&m);
        let m2 = parse(&text, "toggle").unwrap();
        assert_eq!(m.num_states(), m2.num_states());
        assert_eq!(m.num_inputs(), m2.num_inputs());
        for s in 0..m.num_states() {
            for i in 0..m.num_inputs() {
                assert_eq!(m.next_state(s, i), m2.next_state(s, i));
                assert_eq!(
                    m.output_name(m.output(s, i)),
                    m2.output_name(m2.output(s, i))
                );
            }
        }
    }

    #[test]
    fn write_uses_binary_names_when_available() {
        let m = parse(TOGGLE, "toggle").unwrap();
        let text = write(&m);
        assert!(text.contains(".i 1"));
        assert!(text.contains(".r a"));
    }

    #[test]
    fn output_dont_cares_resolve_to_zero() {
        let text = "\
.i 1
.o 2
.s 1
0 a a 1-
1 a a 10
";
        let m = parse(text, "dc").unwrap();
        // `1-` resolves to `10`, so both transitions share one output symbol.
        assert_eq!(m.num_outputs(), 1);
        assert_eq!(m.output_name(0), "10");
    }
}
