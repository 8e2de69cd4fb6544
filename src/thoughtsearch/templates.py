"""Prompt templates as data.

Templates live in a plain-text file of named sections so operators can edit
them per task without touching code. Each body may use only the five named
slots: {thoughts}, {documents}, {query}, {context}, {thought}. Any other
brace is literal text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, read_text

TEMPLATE_NAMES = (
    "ThoughtGen",
    "AnswerWithContext",
    "AnswerClosedBook",
    "RetrievalQuery",
    "SelfCritic",
)
SLOTS = ("thoughts", "documents", "query", "context", "thought")

_SECTION = re.compile(r"^===\s*(\w+)\s*===\s*$")
_PLACEHOLDER = re.compile(r"\{(\w+)\}")


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    body: str

    def __post_init__(self):
        if self.name not in TEMPLATE_NAMES:
            raise ConfigError(f"unknown template name {self.name!r}")
        for slot in _PLACEHOLDER.findall(self.body):
            if slot not in SLOTS:
                raise ConfigError(
                    f"template {self.name!r} uses unknown placeholder {{{slot}}}"
                )

    def render(self, **slots: str) -> str:
        """The body with each slot replaced by its value ("" when not given)."""
        return _PLACEHOLDER.sub(lambda match: slots.get(match.group(1), ""), self.body)


class TemplateSet:
    """All five templates, loaded from a file section per name or built in."""

    def __init__(self, templates: dict[str, PromptTemplate]):
        missing = [name for name in TEMPLATE_NAMES if name not in templates]
        if missing:
            raise ConfigError(f"template set is missing sections: {missing}")
        self._templates = templates

    def __getitem__(self, name: str) -> PromptTemplate:
        return self._templates[name]

    @classmethod
    def from_text(cls, text: str) -> "TemplateSet":
        sections: dict[str, list[str]] = {}
        current: list[str] | None = None
        for line in text.splitlines():
            match = _SECTION.match(line)
            if match:
                current = sections.setdefault(match.group(1), [])
                continue
            if current is not None:
                current.append(line)
        templates = {
            name: PromptTemplate(name=name, body="\n".join(lines).strip("\n"))
            for name, lines in sections.items()
            if name in TEMPLATE_NAMES
        }
        return cls(templates)

    @classmethod
    def from_file(cls, path: str | Path) -> "TemplateSet":
        return cls.from_text(read_text(path, "template", ConfigError))

    @classmethod
    def builtin(cls, mode: str) -> "TemplateSet":
        if mode not in BUILTIN_TEMPLATES:
            raise ConfigError(f"no builtin templates for task mode {mode!r}")
        return cls.from_text(BUILTIN_TEMPLATES[mode])


BOOLQ_TEMPLATES = '''\
=== ThoughtGen ===
[INST] <<SYS>> You are a thought-generation agent. Given previous THOUGHTS and factual DOCUMENTS, generate a new thought that gathers the relevant elements required to answer the following QUESTION.<</SYS>>

THOUGHTS : "{thoughts}"

DOCUMENTS : "{documents}"

QUESTION : "{query}"[/INST]

RESPONSE :
=== AnswerWithContext ===
[INST] <<SYS>> Using the given CONTEXT, answer the following True or False QUESTION. If the answer is YES output 1. If the answer is NO output 0.<</SYS>>

CONTEXT : "{context}"

QUESTION : "{query}"[/INST]

OUTPUT NUMBER :
=== AnswerClosedBook ===
[INST] <<SYS>> Answer the QUESTION. If the answer is YES output 1. If the answer is NO output 0.<</SYS>>

QUESTION : "{query}"[/INST]

OUTPUT NUMBER :
=== RetrievalQuery ===
[INST] <<SYS>> You are an agent that formulates a document query. Given previous THOUGHTS, formulate a query in English to retrieve the relevant information required to answer the QUESTION.<</SYS>>

THOUGHTS : "{thoughts}"

QUESTION : "{query}"[/INST]

QUERY :
=== SelfCritic ===
[INST] <<SYS>> You are an agent that rates the information contained in CONTEXT. If the information contained in the CONTEXT is accurate and you have all the information required to answer the QUESTION, you output 1. If the CONTEXT is not accurate or you do not have all the information required to answer the QUESTION, you output 0.<</SYS>>

QUESTION : "{query}"

CONTEXT : "{thought}"[/INST]

OUTPUT NUMBER :
'''

EMRQA_TEMPLATES = '''\
=== ThoughtGen ===
[INST] <<SYS>> As a thought generation agent, your task is to analyze previous THOUGHTS and a PATIENT RECORD. From this information, generate a new thought that compiles relevant elements needed to answer the following QUESTION. Focus on identifying a quantity, expressed in milligrams (mg), as it appears in the PATIENT RECORD or the THOUGHTS, before considering the dosage.<</SYS>>

THOUGHTS : "{thoughts}"

PATIENT RECORD : "{documents}"

QUESTION : "{query}"[/INST]

RESPONSE :
=== AnswerWithContext ===
[INST] <<SYS>> Using the given CONTEXT, answer the following QUESTION. The unit is in mg. Only output a number.

Examples of answer : 30  / 900  / 10 <</SYS>>

CONTEXT : "{context}"

QUESTION : "{query} ?"[/INST]

OUTPUT :
=== AnswerClosedBook ===
[INST] <<SYS>> Answer the following QUESTION. The unit is in mg. Only output a number. <</SYS>>

QUESTION : "{query} ?"[/INST]

OUTPUT :
=== RetrievalQuery ===
[INST] <<SYS>> You are an agent that formulates a document query. Given previous THOUGHTS, formulate a query in English to retrieve the relevant information required to answer the QUESTION.<</SYS>>

THOUGHTS : "{thoughts}"

QUESTION : "{query}"[/INST]

QUERY :
=== SelfCritic ===
[INST] <<SYS>> You are an agent that rates the information contained in CONTEXT. If the information contained in the CONTEXT is accurate and you have all the information required to answer the QUESTION, you output 1. If the CONTEXT is not accurate or you do not have all the information required to answer the QUESTION, you output 0.<</SYS>>

QUESTION : "{query}"

CONTEXT : "{thought}"[/INST]

OUTPUT NUMBER :
'''

BUILTIN_TEMPLATES = {"boolq": BOOLQ_TEMPLATES, "emrqa": EMRQA_TEMPLATES, "simulated": BOOLQ_TEMPLATES}
