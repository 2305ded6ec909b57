"""SQL/HQL query-string parsing into relational algebra."""

from .parser import (
    SqlParseError,
    bind_lifted,
    combine_conjunctive,
    parse_query,
    parse_template,
    register_aggregate_name,
)

__all__ = [
    "SqlParseError",
    "bind_lifted",
    "combine_conjunctive",
    "parse_query",
    "parse_template",
    "register_aggregate_name",
]
