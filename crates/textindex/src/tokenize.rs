//! Tokenisation of XML text content and query strings.
//!
//! SEDA's full-text indexes (node postings and the keyword→path context index
//! of Fig. 8) share one tokenizer so that query keywords and indexed content
//! agree on term boundaries.  Tokens are lower-cased alphanumeric runs;
//! punctuation separates tokens; decimal numbers such as `16.9` are kept as a
//! single token because percentages and monetary values (`12.31T`) are
//! first-class content in the Factbook corpus.

/// A token together with its ordinal position within the tokenised text
/// (positions support phrase queries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Normalised (lower-case) token text.
    pub text: String,
    /// 0-based position of the token in its source text.
    pub position: u32,
}

/// Splits text into normalised tokens.
pub fn tokenize(text: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    for_each_term(text, |term| {
        let position = tokens.len() as u32;
        tokens.push(Token { text: term.to_string(), position });
    });
    tokens
}

/// Convenience: tokenised text as plain strings (used for query keywords,
/// where positions are irrelevant).
pub fn terms(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_term(text, |term| out.push(term.to_string()));
    out
}

/// Calls `f` with each normalised token of `text`, in order — the tokens of
/// [`tokenize`] — through one reused buffer, so index builds can look terms
/// up by `&str` and allocate only for terms they have not seen.
pub fn for_each_term(text: &str, mut f: impl FnMut(&str)) {
    let mut current = String::new();
    let mut chars = text.chars().peekable();
    let mut flush = |current: &mut String| {
        if !current.is_empty() {
            f(current);
            current.clear();
        }
    };
    while let Some(c) = chars.next() {
        if c.is_ascii_alphanumeric() {
            current.push(c.to_ascii_lowercase());
        } else if c.is_alphanumeric() {
            current.extend(c.to_lowercase());
        } else if c == '.' && !current.is_empty() && current.bytes().all(|b| b.is_ascii_digit()) {
            // Keep decimal points inside numbers ("16.9", "12.31") but only if
            // a digit follows; a trailing period ends the token.
            if chars.peek().is_some_and(|n| n.is_ascii_digit()) {
                current.push('.');
            } else {
                flush(&mut current);
            }
        } else {
            flush(&mut current);
        }
    }
    flush(&mut current);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercases_and_splits_on_whitespace() {
        assert_eq!(terms("United States"), vec!["united", "states"]);
    }

    #[test]
    fn punctuation_separates_tokens() {
        assert_eq!(terms("import-partners, 2006"), vec!["import", "partners", "2006"]);
    }

    #[test]
    fn decimal_numbers_stay_together() {
        assert_eq!(terms("16.9%"), vec!["16.9"]);
        assert_eq!(terms("GDP 12.31T"), vec!["gdp", "12.31t"]);
    }

    #[test]
    fn trailing_period_is_dropped() {
        assert_eq!(terms("China."), vec!["china"]);
        assert_eq!(terms("15."), vec!["15"]);
    }

    #[test]
    fn positions_are_sequential() {
        let tokens = tokenize("trade partners of the United States");
        let positions: Vec<u32> = tokens.iter().map(|t| t.position).collect();
        assert_eq!(positions, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_and_symbol_only_text_has_no_tokens() {
        assert!(terms("").is_empty());
        assert!(terms("--- %% !!").is_empty());
    }

    #[test]
    fn unicode_text_is_handled() {
        assert_eq!(terms("Côte d'Ivoire"), vec!["côte", "d", "ivoire"]);
        assert_eq!(terms("北京 2006"), vec!["北京", "2006"]);
    }

    #[test]
    fn underscores_separate_tokens() {
        // Tag names such as `trade_country` tokenize into their words so a
        // keyword query for "country" also hits the tag vocabulary.
        assert_eq!(terms("trade_country"), vec!["trade", "country"]);
    }
}
