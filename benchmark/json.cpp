#include "json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace tpfbench {

const Json* Json::get(const std::string& key) const {
    if (kind != Object) return nullptr;
    for (const auto& [k, v] : fields)
        if (k == key) return &v;
    return nullptr;
}

namespace {

class Parser {
public:
    explicit Parser(const std::string& text) : s_(text) {}

    Json document() {
        Json v = value();
        skipSpace();
        if (pos_ != s_.size()) fail("trailing characters");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        throw std::runtime_error("JSON: " + what + " at offset " +
                                 std::to_string(pos_));
    }

    void skipSpace() {
        while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                    s_[pos_] == '\r' || s_[pos_] == '\t'))
            ++pos_;
    }

    bool consume(char c) {
        skipSpace();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void expect(char c) {
        if (!consume(c)) fail(std::string("expected '") + c + "'");
    }

    bool literal(const char* word) {
        const std::string w(word);
        if (s_.compare(pos_, w.size(), w) != 0) return false;
        pos_ += w.size();
        return true;
    }

    std::string string() {
        expect('"');
        std::string out;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\') {
                if (pos_ >= s_.size()) fail("unterminated escape");
                c = s_[pos_++];
                switch (c) {
                case 'n': c = '\n'; break;
                case 't': c = '\t'; break;
                case 'r': c = '\r'; break;
                case 'b': c = '\b'; break;
                case 'f': c = '\f'; break;
                case 'u': fail("\\u escapes are not supported");
                default: break; // '"', '\\', '/'
                }
            }
            out += c;
        }
        if (pos_ >= s_.size()) fail("unterminated string");
        ++pos_;
        return out;
    }

    Json value() {
        skipSpace();
        if (pos_ >= s_.size()) fail("unexpected end");
        Json v;
        const char c = s_[pos_];
        if (c == '{') {
            ++pos_;
            v.kind = Json::Object;
            if (consume('}')) return v;
            do {
                skipSpace();
                std::string key = string();
                expect(':');
                v.fields.emplace_back(std::move(key), value());
            } while (consume(','));
            expect('}');
        } else if (c == '[') {
            ++pos_;
            v.kind = Json::Array;
            if (consume(']')) return v;
            do {
                v.items.push_back(value());
            } while (consume(','));
            expect(']');
        } else if (c == '"') {
            v.kind = Json::String;
            v.str = string();
        } else if (literal("true")) {
            v.kind = Json::Bool;
            v.boolean = true;
        } else if (literal("false")) {
            v.kind = Json::Bool;
        } else if (literal("null")) {
            v.kind = Json::Null;
        } else {
            const char* begin = s_.c_str() + pos_;
            char* end = nullptr;
            v.kind = Json::Number;
            v.number = std::strtod(begin, &end);
            if (end == begin) fail("unexpected character");
            pos_ += static_cast<std::size_t>(end - begin);
        }
        return v;
    }

    const std::string& s_;
    std::size_t pos_ = 0;
};

} // namespace

Json parseJson(const std::string& text) { return Parser(text).document(); }

Json readJsonFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
        return parseJson(buf.str());
    } catch (const std::runtime_error& e) {
        throw std::runtime_error(path + ": " + e.what());
    }
}

std::string jsonString(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string jsonNumber(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace tpfbench
