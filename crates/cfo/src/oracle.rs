//! Input validation shared by every frequency-oracle protocol.

use crate::error::CfoError;
use ldp_core::CoreError;

/// Rejects a private value outside the oracle's domain `{0, …, d-1}`.
pub(crate) fn check_value(value: usize, domain: usize) -> Result<(), CoreError> {
    if value >= domain {
        return Err(CoreError::InvalidInput(
            CfoError::ValueOutOfDomain { value, domain }.to_string(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_value_bounds() {
        assert!(check_value(0, 4).is_ok());
        assert!(check_value(3, 4).is_ok());
        assert!(check_value(4, 4).is_err());
    }
}
